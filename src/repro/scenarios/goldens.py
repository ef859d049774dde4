"""The golden corpus: trimmed fixed-seed runs of every registered scenario.

Every entry in the scenario registry (and every registered study) has a
committed golden under ``tests/goldens/``: the deterministic
``ResultSet.to_json()`` of a *trimmed* fixed-seed run — same
configuration shape, same seeds, durations/sizes cut down so the whole
corpus regenerates in well under a minute.  The tier-1 suite re-runs each
trimmed scenario and diffs it against its golden at **zero tolerance**
(:mod:`repro.analysis.diff`), which turns the entire registry into a
regression gate: any change to an adapter, the engine, the RNG or a spec
that shifts a single metric of a single scenario fails the build with a
rendered drift table.

The trims live here — not in the tests — so the regenerator and the gate
can never disagree about what a golden means.  ``SCENARIO_TRIMS`` must
cover every registered scenario and ``STUDY_TRIMS`` every registered
study (a tier-1 test enforces both), so registering a new scenario forces
a golden entry for it.

Regenerate after an *intentional* numbers change with::

    make goldens
    # equivalently: PYTHONPATH=src python -m repro.scenarios.goldens

and commit the diff; the test failure message says the same thing.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Dict, List, Optional

from repro.scenarios.execution import ExecutionPlan, execute_plan
from repro.scenarios.runner import compile_sweep
from repro.scenarios.study import compile_study

#: Dotted-path overrides trimming each registered scenario for the corpus.
#: An entry may override the ``sweeps`` field wholesale to cut the number
#: of expansion points; an empty dict means the scenario is already cheap.
SCENARIO_TRIMS: Dict[str, Dict[str, object]] = {
    # permissionless: PoW networks measure in blocks
    "pow-baseline": {"architecture.duration_blocks": 15},
    "pow-ethereum": {"architecture.duration_blocks": 60},
    "pow-fork-dynamics": {"architecture.duration_blocks": 20},
    "miner-propagation": {"architecture.duration_blocks": 12},
    # permissionless: PoS fork model measures in rounds
    "pos-nothing-at-stake": {"architecture.rounds": 400},
    "pos-slashing": {"architecture.rounds": 400},
    # consensus clusters measure in seconds
    "pbft-consortium": {"duration": 1.0},
    "raft-ordering": {"duration": 1.0},
    "bft-committee-sweep": {"duration": 1.0,
                            "sweeps": {"architecture.replicas": [4, 13]}},
    # permissioned ledgers
    "fabric-consortium": {"duration": 1.0},
    "fabric-supply-chain": {"duration": 1.0, "workload.entities": 600},
    # open-ecosystem economics
    "market-concentration": {"architecture.steps": 50,
                             "architecture.arrivals_per_step": 60},
    "mining-pools": {"architecture.miners": 300, "architecture.rounds": 40},
    # attack harnesses
    "selfish-mining": {"architecture.blocks": 5000,
                       "sweeps": {"architecture.alpha": [0.3, 0.45]}},
    "double-spend": {},  # closed-form analysis; already instant
    "sybil-attack": {"topology.size": 120, "workload.lookups": 20},
    # overlays
    "kad-lookup": {"topology.size": 150, "workload.lookups": 25},
    "mainline-lookup": {"topology.size": 150, "workload.lookups": 25},
    "churn-ladder": {"topology.size": 120, "workload.lookups": 20},
    "churn-model-ablation": {"topology.size": 120, "workload.lookups": 15,
                             "sweeps": {"architecture.overlay": ["kad"]}},
    "chord-lookup": {"topology.size": 150, "workload.lookups": 25},
    "onehop-lookup": {"topology.size": 1500, "workload.lookups": 50},
    "overlay-scaling": {"workload.lookups": 20,
                        "sweeps": {"topology.size": [100, 200]}},
    "overlay-scaling-large": {"workload.lookups": 100,
                              "sweeps": {"topology.size": [1000, 2000]}},
    "kademlia-churn-100k": {"topology.size": 5000, "workload.lookups": 200},
    "gnutella-search": {"topology.size": 250, "workload.lookups": 40},
    "superpeer-search": {"topology.size": 500, "architecture.superpeers": 20,
                         "workload.lookups": 50},
    # edge
    "edge-placement": {"workload.requests": 300},
    "edge-federation": {"duration": 1.0},
}

#: Per-member overrides trimming each registered study (``"*"`` = all).
STUDY_TRIMS: Dict[str, Dict[str, Dict[str, object]]] = {
    "figure1": {
        "bitcoin": {"architecture.duration_blocks": 20},
        "ethereum": {"architecture.duration_blocks": 60},
        "pbft": {"duration": 1.0},
        "fabric": {"duration": 1.0},
        "edge": {"duration": 1.0},
    },
    "trilemma": {
        "pow": {"architecture.duration_blocks": 15},
        "committee": {"duration": 1.0},
        "fabric": {"duration": 1.0},
        "pools": {"architecture.miners": 300, "architecture.rounds": 40},
    },
    "churn-resilience": {
        "*": {"topology.size": 150, "workload.lookups": 25},
    },
    "concentration": {
        "market": {"architecture.steps": 50,
                   "architecture.arrivals_per_step": 60},
        "market-uniform": {"architecture.steps": 50,
                           "architecture.arrivals_per_step": 60},
        "mining-pools": {"architecture.miners": 300,
                         "architecture.rounds": 40},
    },
}


def goldens_dir() -> Path:
    """``tests/goldens`` at the repository root (this file's checkout)."""
    return Path(__file__).resolve().parents[3] / "tests" / "goldens"


def golden_path(kind: str, name: str,
                directory: Optional[Path] = None) -> Path:
    """The committed file of one golden (``kind`` is scenario/study)."""
    return (directory or goldens_dir()) / f"{kind}-{name}.json"


def golden_plan(kind: str, name: str) -> ExecutionPlan:
    """The trimmed fixed-seed plan a golden captures (``kind`` is
    scenario/study); its serial run is the golden."""
    if kind == "scenario":
        if name not in SCENARIO_TRIMS:
            raise KeyError(
                f"scenario {name!r} has no golden trim; add a SCENARIO_TRIMS "
                f"entry in {__name__} (empty dict if it is already fast)"
            )
        return compile_sweep(name, overrides=SCENARIO_TRIMS[name])
    if name not in STUDY_TRIMS:
        raise KeyError(
            f"study {name!r} has no golden trim; add a STUDY_TRIMS entry "
            f"in {__name__}"
        )
    return compile_study(name, member_overrides=STUDY_TRIMS[name])


def golden_entries() -> List[tuple]:
    """Every ``(kind, name)`` the corpus must contain, in registry order."""
    from repro.scenarios.registry import scenario_names
    from repro.scenarios.study import study_names

    return ([("scenario", name) for name in scenario_names()]
            + [("study", name) for name in study_names()])


def write_golden(kind: str, name: str,
                 directory: Optional[Path] = None) -> Path:
    """(Re)generate one golden file; returns the path written."""
    path = golden_path(kind, name, directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(execute_plan(golden_plan(kind, name)).to_json() + "\n",
                    encoding="utf-8")
    return path


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate the golden corpus under tests/goldens/.")
    parser.add_argument("--dir", type=Path, default=None,
                        help="output directory (default: tests/goldens)")
    parser.add_argument("--only", action="append", default=[], metavar="NAME",
                        help="regenerate only these scenario/study names "
                             "(repeatable; default: the whole corpus)")
    args = parser.parse_args(argv)

    entries = golden_entries()
    if args.only:
        known = {name for _, name in entries}
        unknown = [name for name in args.only if name not in known]
        if unknown:
            raise SystemExit(f"unknown golden names {unknown}; "
                             f"known: {sorted(known)}")
        entries = [(kind, name) for kind, name in entries
                   if name in set(args.only)]
    for kind, name in entries:
        path = write_golden(kind, name, args.dir)
        print(f"wrote {path}")
    print(f"{len(entries)} golden(s) regenerated; commit the diff if the "
          f"change was intentional")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
