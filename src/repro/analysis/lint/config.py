"""reprolint configuration: per-rule zones and the repo's default contract.

A *zone* is the set of modules a rule applies to, expressed as dotted
module patterns.  A pattern matches the module itself and every submodule
(``repro.sim`` covers ``repro.sim.engine``); ``fnmatch`` wildcards are also
honoured (``repro.*.adapters``).  Each rule carries an ``apply`` zone and
an ``allow`` zone — modules inside ``apply`` but also inside ``allow`` are
exempt wholesale, which is how supervision (`repro.scenarios.execution`)
and the run store (`repro.analysis.runstore`) keep their wall clocks: their
timers and timestamps never feed simulation results, so RL002 does not
police them.  Line-level exceptions inside a policed module use inline
``# reprolint: ok`` suppressions instead (see :mod:`.framework`).

The default configuration below *is* the repo's determinism contract;
``repro-lint --config FILE`` can override zones per rule from a small JSON
document (``{"RL002": {"apply": [...], "allow": [...]}}``) which is what
the test suite uses to exercise allowlisting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Dict, Mapping, Tuple

#: Modules with *simulation semantics*: anything here executes inside the
#: virtual-time world whose outputs are hashed, goldened and diffed.
SIM_SEMANTICS_ZONE: Tuple[str, ...] = (
    "repro.sim",
    "repro.p2p",
    "repro.blockchain",
    "repro.consensus",
    "repro.edge",
    "repro.permissioned",
    "repro.economics",
    "repro.core",
    "repro.scenarios.adapters",
    "repro.scenarios.runner",
)


@dataclass(frozen=True)
class ZoneConfig:
    """Where one rule applies: ``apply`` minus ``allow``."""

    apply: Tuple[str, ...] = ()
    allow: Tuple[str, ...] = ()


@dataclass(frozen=True)
class LintConfig:
    """The full lint configuration (zones plus RL006's spec knobs)."""

    zones: Mapping[str, ZoneConfig] = field(default_factory=dict)
    #: RL006: module/class holding the scenario spec dataclass.
    spec_module: str = "repro.scenarios.spec"
    spec_class: str = "ScenarioSpec"
    #: RL006: the spec fields whose unconditional emission defines the
    #: frozen serialized form every recorded spec hash was derived from.
    #: Frozen on purpose — extending this list IS the hash-breaking act
    #: the rule exists to catch; new fields must conditional-emit or be
    #: registered observational instead.
    baseline_spec_fields: Tuple[str, ...] = (
        "name", "family", "description", "claim", "architecture",
        "topology", "churn", "workload", "duration", "seed", "replicates",
        "sweeps", "variants",
    )
    #: RL006: where OBSERVATIONAL_SPEC_KEYS lives (module + symbol).
    observational_keys_module: str = "repro.analysis.diff"
    observational_keys_name: str = "OBSERVATIONAL_SPEC_KEYS"


def _match(module: str, pattern: str) -> bool:
    if module == pattern or module.startswith(pattern + "."):
        return True
    return fnmatchcase(module, pattern)


def module_in(module: str, patterns: Tuple[str, ...]) -> bool:
    """Whether ``module`` falls inside any of the zone ``patterns``."""
    return any(_match(module, pattern) for pattern in patterns)


def rule_applies(config: LintConfig, code: str, module: str) -> bool:
    """Whether the rule ``code`` polices ``module`` under ``config``."""
    zone = config.zones.get(code)
    if zone is None:
        return False
    if not module_in(module, zone.apply):
        return False
    return not module_in(module, zone.allow)


def default_config() -> LintConfig:
    """The repo's determinism contract (see the module docstring)."""
    return LintConfig(zones={
        # Builtin hash() is salted per process (PYTHONHASHSEED): any value
        # derived from it differs across runs.  Banned package-wide — the
        # linter itself included.
        "RL001": ZoneConfig(apply=("repro",)),
        # Wall-clock reads are banned wherever results are computed.
        # Supervision timers, run-store timestamps, the fault harness and
        # the distributed transport (lease deadlines, heartbeats) are
        # allowlisted: their clocks decide *when* to retry or *what* to
        # label a saved run, never what a metric is worth.
        "RL002": ZoneConfig(
            apply=("repro",),
            allow=(
                "repro.scenarios.execution",
                "repro.scenarios.faults",
                "repro.analysis.runstore",
                "repro.distributed",
            ),
        ),
        # Global/module-level RNG bypasses SeededRNG seed-pinning; only the
        # RNG wrapper itself and the counter-based vectorized substrate may
        # touch primitive generators.
        "RL003": ZoneConfig(
            apply=("repro",),
            allow=("repro.sim.rng", "repro.sim.vecstate"),
        ),
        # Set iteration order is unspecified; anywhere a loop body draws
        # randomness, schedules events or builds output, it must be sorted.
        "RL004": ZoneConfig(apply=("repro",)),
        # Environment/platform reads inside unit-job execution paths break
        # spec-hash purity (the same (spec, seed) must mean the same run on
        # every host).  Zone covers the simulation world plus the execution
        # layer; the fault-injection env hook carries inline suppressions.
        "RL005": ZoneConfig(
            apply=SIM_SEMANTICS_ZONE + (
                "repro.scenarios.execution",
                "repro.scenarios.spec",
                "repro.analysis.runstore",
            ),
            # The fault harness IS an env-var transport by design:
            # REPRO_FAULT_PLAN must reach pool workers through the
            # environment, and the plan only ever *injects failures*
            # (which are retried or manifested), never metric values.
            allow=("repro.scenarios.faults",),
        ),
        # ScenarioSpec serialized-form discipline (see rules.RuleSpecFields).
        "RL006": ZoneConfig(apply=("repro.scenarios.spec",)),
    })


def load_config(path: Path, base: LintConfig) -> LintConfig:
    """Overlay zone overrides from a JSON file onto ``base``.

    The document maps rule codes to ``{"apply": [...], "allow": [...]}``;
    omitted rules keep their defaults, an omitted key keeps that half.
    Top-level ``spec_module``/``spec_class``/``baseline_spec_fields``/
    ``observational_keys_module``/``observational_keys_name`` may also be
    overridden (used by the test fixtures).
    """
    data = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError("lint config must be a JSON object")
    zones = dict(base.zones)
    scalars: Dict[str, object] = {}
    for key, value in data.items():
        if key in ("spec_module", "spec_class", "observational_keys_module",
                   "observational_keys_name"):
            scalars[key] = str(value)
            continue
        if key == "baseline_spec_fields":
            scalars[key] = tuple(str(v) for v in value)
            continue
        if not isinstance(value, dict):
            raise ValueError(f"zone override for {key!r} must be an object")
        current = zones.get(key, ZoneConfig())
        zones[key] = ZoneConfig(
            apply=tuple(str(p) for p in value.get("apply", current.apply)),
            allow=tuple(str(p) for p in value.get("allow", current.allow)),
        )
    return replace(base, zones=zones, **scalars)  # type: ignore[arg-type]
