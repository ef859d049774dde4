"""Cross-family studies: named bundles of scenario runs over one workload.

The paper's central artifact is a *comparison* — the same workload driven
through permissionless, consensus-based, permissioned and edge architectures
and reported on throughput/latency/energy/trust axes.  A
:class:`StudySpec` makes that a first-class, registered object: a list of
:class:`StudyMember` entries, each naming a registered scenario plus the
dotted-path overrides that pin it to the study's matched workload.
:func:`run_study` executes every member through the existing runner and
returns one :class:`~repro.analysis.resultset.ResultSet`, so study output
gets the full filter/group/aggregate/CI query surface.

Usage::

    from repro.scenarios import run_study

    results = run_study("figure1")                     # the whole study
    results = run_study("figure1", members=["bitcoin", "fabric"])
    results = run_study("figure1", replicates=3,
                        member_overrides={"bitcoin": {"architecture.duration_blocks": 30}})
    print(results.to_table(metrics=["throughput_tps", "trust_nakamoto"]).render())

The same registry drives the command line::

    python -m repro.run --list-studies
    python -m repro.run study figure1 --json - --replicates 3
    python -m repro.run study figure1 --set bitcoin.architecture.duration_blocks=20

Study output at a fixed seed is deterministic: two runs of the same study
produce byte-identical ``to_json()`` output.
"""

from __future__ import annotations

import copy as _copy
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.analysis.resultset import ResultSet
from repro.scenarios.execution import ExecutionPlan, execute_plan
from repro.scenarios.runner import Backend, compile_scenario, compile_sweep


@dataclass
class StudyMember:
    """One scenario run inside a study.

    Attributes
    ----------
    label:
        Display/query key of this member inside the study's ResultSet
        (``results.only(label=...)``); unique within the study.
    scenario:
        Name of a registered :class:`~repro.scenarios.spec.ScenarioSpec`.
    overrides:
        Dotted-path overrides pinning the scenario to the study's matched
        workload (``{"workload.rate_tps": 25.0}``).
    sweep:
        When true, the member expands its scenario's variants/sweeps via
        :func:`~repro.scenarios.runner.run_sweep` (one result per point,
        labelled ``"<label>: <point label>"``) instead of running the base
        configuration once.
    """

    label: str
    scenario: str
    overrides: Dict[str, object] = field(default_factory=dict)
    sweep: bool = False

    def to_dict(self) -> Dict[str, object]:
        """Plain JSON-serialisable representation."""
        return {
            "label": self.label,
            "scenario": self.scenario,
            "overrides": _copy.deepcopy(self.overrides),
            "sweep": self.sweep,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "StudyMember":
        """Inverse of :meth:`to_dict`."""
        return cls(
            label=str(data["label"]),
            scenario=str(data["scenario"]),
            overrides=_copy.deepcopy(dict(data.get("overrides") or {})),
            sweep=bool(data.get("sweep", False)),
        )


@dataclass
class StudySpec:
    """A named bundle of scenario runs across families.

    Attributes
    ----------
    name:
        Registry name (``figure1``, ``trilemma``, ...).
    description:
        One-line summary shown by ``repro-run --list-studies``.
    claim:
        Claim id this study regenerates, if any.
    members:
        The scenario runs; labels must be unique.
    seed / replicates:
        Optional base seed / replicate count applied to every member
        (``None`` keeps each scenario's registered values).
    compare_metrics:
        The headline metrics the study compares across members, used as the
        default columns of the CLI comparison table; metrics a family does
        not report render as ``-``.
    """

    name: str
    description: str = ""
    claim: str = ""
    members: List[StudyMember] = field(default_factory=list)
    seed: Optional[int] = None
    replicates: Optional[int] = None
    compare_metrics: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError(f"study {self.name!r} needs at least one member")
        labels = [member.label for member in self.members]
        if len(set(labels)) != len(labels):
            raise ValueError(f"study {self.name!r} has duplicate member labels: {labels}")

    def member_labels(self) -> List[str]:
        """The member labels, in declaration order."""
        return [member.label for member in self.members]

    def copy(self) -> "StudySpec":
        """An independent deep copy."""
        return _copy.deepcopy(self)

    def to_dict(self) -> Dict[str, object]:
        """Plain JSON-serialisable representation."""
        return {
            "name": self.name,
            "description": self.description,
            "claim": self.claim,
            "members": [member.to_dict() for member in self.members],
            "seed": self.seed,
            "replicates": self.replicates,
            "compare_metrics": list(self.compare_metrics),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "StudySpec":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=str(data["name"]),
            description=str(data.get("description", "")),
            claim=str(data.get("claim", "")),
            members=[StudyMember.from_dict(entry)
                     for entry in data.get("members", [])],
            seed=data.get("seed"),
            replicates=data.get("replicates"),
            compare_metrics=list(data.get("compare_metrics", [])),
        )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
STUDIES: Dict[str, StudySpec] = {}


def register_study(spec: StudySpec) -> StudySpec:
    """Add a study to the registry; names must be unique."""
    if spec.name in STUDIES:
        raise ValueError(f"study {spec.name!r} already registered")
    STUDIES[spec.name] = spec
    return spec


def study_names() -> List[str]:
    """All registered study names, in registration order."""
    return list(STUDIES)


def get_study(name: str) -> StudySpec:
    """An independent copy of a registered study."""
    try:
        return STUDIES[name].copy()
    except KeyError:
        known = ", ".join(sorted(STUDIES))
        raise KeyError(f"unknown study {name!r}; known studies: {known}") from None


# ----------------------------------------------------------------------
# Compilation and execution
# ----------------------------------------------------------------------
def compile_study(
    study: Union[str, StudySpec],
    seed: Optional[int] = None,
    replicates: Optional[int] = None,
    members: Optional[Sequence[str]] = None,
    member_overrides: Optional[Mapping[str, Mapping[str, object]]] = None,
) -> ExecutionPlan:
    """Compile a study (or a subset of its members) into an ExecutionPlan.

    One :class:`~repro.scenarios.execution.ResultSlot` per member (or per
    sweep point of a swept member, labelled ``"<member>: <point>"``), each
    holding one seed-pinned unit job per replicate.  The plan is pure data;
    hand it to :func:`~repro.scenarios.execution.execute_plan` or just call
    :func:`run_study`.
    """
    spec = get_study(study) if isinstance(study, str) else study
    selected = spec.members
    if members is not None:
        unknown = [label for label in members if label not in spec.member_labels()]
        if unknown:
            raise KeyError(
                f"study {spec.name!r} has no members {unknown}; "
                f"members: {spec.member_labels()}"
            )
        selected = [member for member in spec.members if member.label in set(members)]
    extra = dict(member_overrides or {})
    unknown = [label for label in extra
               if label != "*" and label not in spec.member_labels()]
    if unknown:
        raise KeyError(
            f"member_overrides reference unknown members {unknown} of study "
            f"{spec.name!r}; members: {spec.member_labels()}"
        )
    run_seed = seed if seed is not None else spec.seed
    run_replicates = replicates if replicates is not None else spec.replicates

    slots = []
    for member in selected:
        overrides = dict(member.overrides)
        overrides.update(extra.get("*", {}))
        overrides.update(extra.get(member.label, {}))
        if member.sweep:
            member_plan = compile_sweep(member.scenario, overrides=overrides,
                                        seed=run_seed, replicates=run_replicates)
            for slot in member_plan.slots:
                slot.label = (f"{member.label}: {slot.label}"
                              if slot.label else member.label)
                slots.append(slot)
        else:
            member_plan = compile_scenario(member.scenario, overrides=overrides,
                                           seed=run_seed,
                                           replicates=run_replicates)
            slot = member_plan.slots[0]
            slot.label = member.label
            slots.append(slot)
    return ExecutionPlan(slots=slots, name=spec.name, description=spec.description)


def run_study(
    study: Union[str, StudySpec],
    seed: Optional[int] = None,
    replicates: Optional[int] = None,
    members: Optional[Sequence[str]] = None,
    member_overrides: Optional[Mapping[str, Mapping[str, object]]] = None,
    backend: Backend = None,
    store=None,
    progress=None,
    resume: bool = True,
    policy=None,
) -> ResultSet:
    """Run a study (or a subset of its members) into one ResultSet.

    ``members`` restricts the run to the given labels (declaration order is
    kept).  ``member_overrides`` maps a member label — or ``"*"`` for every
    member — to extra dotted-path overrides applied on top of the member's
    own; ``seed``/``replicates`` override the study-level values.
    ``backend`` selects the execution backend (an
    :class:`~repro.scenarios.execution.ExecutionBackend` or a ``--jobs``
    integer); ``store`` enables RunStore unit-job resume.  ``policy`` is
    an optional :class:`~repro.scenarios.execution.JobPolicy`; under
    ``keep_going`` the returned set may omit failed members, listing them
    in its ``failures`` manifest.
    """
    plan = compile_study(study, seed=seed, replicates=replicates,
                         members=members, member_overrides=member_overrides)
    return execute_plan(plan, backend=backend, store=store,
                        progress=progress, resume=resume, policy=policy)


# ----------------------------------------------------------------------
# The registered studies
# ----------------------------------------------------------------------
#: The one matched offered payment load every figure1 member sees (tps).
#: Above both PoW capacities (so the permissionless ceiling is visible) and
#: far below the consortium/edge capacity (so their latency stays nominal).
FIGURE1_RATE_TPS = 25.0

register_study(StudySpec(
    name="figure1",
    claim="E16",
    description=(
        "The paper's Figure 1 measured: one payment workload at "
        "25 tps offered through every architecture family"
    ),
    members=[
        StudyMember("bitcoin", "pow-baseline",
                    {"workload.rate_tps": FIGURE1_RATE_TPS}),
        StudyMember("ethereum", "pow-ethereum",
                    {"workload.rate_tps": FIGURE1_RATE_TPS}),
        StudyMember("pbft", "pbft-consortium",
                    {"workload.rate_tps": FIGURE1_RATE_TPS}),
        StudyMember("fabric", "fabric-consortium",
                    {"workload.rate_tps": FIGURE1_RATE_TPS}),
        StudyMember("edge", "edge-federation",
                    {"workload.rate_tps": FIGURE1_RATE_TPS}),
    ],
    compare_metrics=["throughput_tps", "trust_nakamoto", "energy_per_tx_kwh"],
))

register_study(StudySpec(
    name="trilemma",
    claim="E12",
    description=(
        "E12's axes from measured runs: throughput (scalability), measured "
        "trust/hash-power concentration (decentralization) per family"
    ),
    members=[
        StudyMember("pow", "pow-baseline",
                    {"architecture.duration_blocks": 60}),
        StudyMember("committee", "pbft-consortium", {}),
        StudyMember("fabric", "fabric-consortium", {}),
        StudyMember("pools", "mining-pools", {}),
    ],
    compare_metrics=["throughput_tps", "trust_nakamoto", "nakamoto"],
))

register_study(StudySpec(
    name="churn-resilience",
    claim="E5",
    description=(
        "Kademlia vs one-hop vs unstructured flooding at the same size and "
        "lookup load under the same kad-measurement churn trace"
    ),
    members=[
        StudyMember("kademlia", "kad-lookup",
                    {"churn": "kad", "topology.size": 400,
                     "workload.lookups": 120}),
        StudyMember("one-hop", "onehop-lookup",
                    {"churn": "kad", "topology.size": 400,
                     "workload.lookups": 120}),
        StudyMember("unstructured", "gnutella-search",
                    {"churn": "kad", "topology.size": 400,
                     "workload.lookups": 120}),
    ],
    compare_metrics=["median_latency_s", "p90_latency_s", "failure_rate"],
))

register_study(StudySpec(
    name="concentration",
    claim="E1",
    description=(
        "Open ecosystems centralize: preferential-attachment provider "
        "markets (E1) and mining-pool formation (E9) vs a uniform baseline"
    ),
    members=[
        StudyMember("market", "market-concentration", {}),
        StudyMember("market-uniform", "market-concentration",
                    {"architecture.preferential_exponent": 0.0,
                     "architecture.scale_advantage": 0.0}),
        StudyMember("mining-pools", "mining-pools", {}),
    ],
    compare_metrics=["top1", "top3", "hhi", "nakamoto"],
))
