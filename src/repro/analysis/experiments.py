"""Generate ``EXPERIMENTS.md`` from the claim registry.

The claim registry (:mod:`repro.core.claims`) is the source of truth for
what the paper states and which benchmark regenerates each statement;
``EXPERIMENTS.md`` is its committed human-readable rendering, cross-linked
with the scenario registry and listing each experiment's knob table
(:class:`repro.scenarios.knobs.Knobs`).  Regenerate it with::

    make experiments
    # equivalently: PYTHONPATH=src python -m repro.analysis.experiments

The file is deterministic for a given registry state, so a stale copy shows
up as a diff.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from repro.analysis.tables import ResultTable

HEADER = """\
# EXPERIMENTS — the paper's quantitative claims as runnable benchmarks

<!-- Generated by `make experiments` (repro.analysis.experiments) from the
     repro.core.claims registry.  Do not edit by hand. -->

Every claim below is registered in `repro.core.claims` and regenerated by
one benchmark under `benchmarks/`; run them all with `make test`, or one
with `PYTHONPATH=src python -m pytest <benchmark> -s` to see the measured
table next to the paper's numbers.  Scenario-framework entries
(`python -m repro.run <scenario>`) run the same experiments standalone.
"""


def render_experiments_markdown() -> str:
    """The full EXPERIMENTS.md content."""
    from repro.core.claims import CLAIMS
    from repro.scenarios.registry import SCENARIOS
    from repro.scenarios.study import STUDIES

    sections: List[str] = [HEADER]

    index = ResultTable(["claim", "paper section", "benchmark", "scenarios"])
    scenarios_by_claim = {}
    for name, spec in SCENARIOS.items():
        scenarios_by_claim.setdefault(spec.claim, []).append(name)
    for claim in CLAIMS:
        names = scenarios_by_claim.get(claim.claim_id, [])
        index.add_row(claim.claim_id, claim.section, f"`{claim.benchmark}`",
                      ", ".join(f"`{name}`" for name in names) or "—")
    sections.append("## Claim index\n")
    sections.append(index.render_markdown())

    sections.append("\n## Claims\n")
    for claim in CLAIMS:
        sections.append(f"### {claim.claim_id} (Section {claim.section})\n")
        sections.append(f"> {claim.statement}\n")
        sections.append(f"- **Paper value:** {claim.paper_value}")
        sections.append(f"- **Benchmark:** `{claim.benchmark}`")
        modules = ", ".join(f"`{module}`" for module in claim.modules)
        sections.append(f"- **Modules:** {modules}")
        names = scenarios_by_claim.get(claim.claim_id, [])
        if names:
            commands = ", ".join(f"`python -m repro.run {name}`" for name in names)
            sections.append(f"- **Scenarios:** {commands}")
        sections.append("")

    sections.append("## Scenario registry\n")
    registry = ResultTable(["scenario", "family", "claim", "points", "description"])
    for name, spec in SCENARIOS.items():
        points = len(spec.expand()) if spec.is_swept else 1
        registry.add_row(f"`{name}`", spec.family, spec.claim or "—", points,
                         spec.description)
    sections.append(registry.render_markdown())

    sections.append("\n## Experiment knobs\n")
    sections.append(
        "Every spec key each registered experiment reads, from its `Knobs` "
        "table: the model parameter it sets, with the type, default and "
        "allowed values the model declares.  Compiling a plan rejects a "
        "key an experiment does not list, and a top-level `duration` or "
        "`churn` it does not read.\n")
    sections += _knob_sections()

    sections.append("\n## Study registry\n")
    sections.append(
        "Cross-family studies bundle several scenarios over one matched "
        "workload and return a queryable `ResultSet`; run one with "
        "`python -m repro.run study <name>` (`--list-studies` shows this "
        "table, `--replicates N` adds bootstrap confidence intervals).\n")
    studies = ResultTable(["study", "claim", "members", "description"])
    for name, study in STUDIES.items():
        members = ", ".join(f"{member.label} (`{member.scenario}`)"
                            for member in study.members)
        studies.add_row(f"`{name}`", study.claim or "—", members, study.description)
    sections.append(studies.render_markdown())
    sections.append("")
    return "\n".join(sections)


def _knob_sections() -> List[str]:
    """One knob table per registered experiment, in registration order."""
    from repro.scenarios.adapters import EXPERIMENTS
    from repro.scenarios.knobs import _declared, _model

    sections = []
    for found in dict.fromkeys(EXPERIMENTS.values()):
        modes = [(family, f"`{mode}`") for (family, mode), other in EXPERIMENTS.items()
                 if other is found]
        knobs = found.knobs
        sections.append(f"### {modes[0][0]} {' / '.join(mode for _, mode in modes)} "
                        f"(`{type(found).__name__}`)\n")
        sections.append("Workload kinds: "
                        f"{', '.join(f'`{kind}`' for kind in knobs.kinds) or 'none'}.\n")
        table = ResultTable(["key", "sets", "type", "default", "allowed values"])
        for key, role, name in knobs.keys():
            target = knobs.roles[role][0]
            default, kind = _declared(_model(target))[name] if target else (None, None)
            allowed = ", ".join(_model(knobs.choices[key])) if key in knobs.choices else "-"
            if key in knobs.presets:
                presets, cls = knobs.presets[key]()
                allowed = f"{', '.join(presets)} or a dict of `{cls.__name__}` fields"
            table.add_row(
                f"`{key}`", f"`{target.partition(':')[2]}.{name}`" if target
                else "read by the experiment", kind.__name__ if kind else "-",
                repr(default) if target and isinstance(
                    default, (bool, int, float, str, type(None))) else "-", allowed)
        sections += [table.render_markdown() if len(table) else "No keys.", ""]
    return sections


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate EXPERIMENTS.md from the claim registry."
    )
    parser.add_argument("--output", default="EXPERIMENTS.md",
                        help="output path ('-' for stdout)")
    args = parser.parse_args(argv)
    content = render_experiments_markdown()
    if args.output == "-":
        print(content)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(content)
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
