"""repro.scenarios — one declarative harness for all five architecture families.

The paper's argument is comparative: the same workload pushed through a
centralized cloud, a permissionless blockchain, a permissioned ledger, an
open P2P overlay and an edge federation.  This package makes that the
default shape of every experiment: a :class:`ScenarioSpec` says *what* to
run as plain data, the :class:`Experiment` registered for its
``(family, mode)`` (:data:`EXPERIMENTS`, resolved by
:func:`experiment_for`) knows *how* to run it, and every run is reduced to
the same :class:`ScenarioResult` (throughput, latency percentiles,
message/energy counters, per-seed replicates).

Usage::

    from repro.scenarios import get_scenario, run_scenario, run_sweep

    # Run a registered scenario (same numbers as the matching benchmark).
    result = run_scenario("pow-baseline")
    print(result.metric("throughput_tps"))

    # Override any knob through a dotted path, re-seed, replicate.
    result = run_scenario("kad-lookup",
                          overrides={"topology.size": 800, "churn": "aggressive"},
                          seed=11, replicates=3)

    # Expand a swept spec (variants x sweep axes) into one result per point.
    for point in run_sweep("bft-committee-sweep"):
        print(point.label, point.metric("throughput_tps"))

    # Or define a new scenario from scratch — ~10 lines, no plumbing.
    from repro.scenarios import ScenarioSpec
    spec = ScenarioSpec(name="my-raft", family="consensus",
                        architecture={"protocol": "raft", "replicas": 7},
                        workload={"kind": "payment", "rate_tps": 2500.0},
                        duration=5.0, seed=42)
    result = run_scenario(spec)

Collections of results — sweep output, study output — are
:class:`~repro.analysis.resultset.ResultSet` objects with a
filter/group_by/aggregate/CI query surface, and cross-family
comparisons are first-class *studies*::

    from repro.scenarios import run_study, run_sweep

    # The paper's Figure 1: one payment workload through every family.
    results = run_study("figure1", replicates=3)
    print(results.to_table(metrics=["throughput_tps", "trust_nakamoto"]).render())
    gap = (results.only(label="fabric").metric("throughput_tps")
           / results.only(label="bitcoin").metric("throughput_tps"))

    # Sweeps return ResultSets too.
    points = run_sweep("bft-committee-sweep")
    print(points.to_table(metrics=["throughput_tps"]).render())

Execution is an explicit, pluggable layer: every entry point *compiles*
its specs into an :class:`ExecutionPlan` of independent, seed-pinned unit
jobs (one per member x variant/sweep point x replicate, each with a
content-addressed key from :meth:`ScenarioSpec.spec_hash`) and runs it on
an :class:`ExecutionBackend` — :class:`SerialBackend` by default, or
:class:`ProcessPoolBackend` to fan out over worker processes with output
byte-identical to the serial run::

    results = run_study("figure1", replicates=3, backend=4)   # --jobs 4

    plan = compile_study("figure1", replicates=3)             # pure data
    print(len(plan.jobs), "unit jobs")
    results = execute_plan(plan, backend=ProcessPoolBackend(4))

Execution is always supervised, by one mechanism: every backend books its
attempts in an :class:`~repro.scenarios.attempts.AttemptLedger` under a
:class:`JobPolicy` (default: no retries, fail fast).  A policy adds per-job
retries with deterministic backoff, wall-clock timeouts and graceful
degradation (``keep_going`` collects jobs that exhaust their budget into
the ResultSet's ``failures`` manifest instead of aborting), and
:class:`ProcessPoolBackend` always detects crashed or hung workers,
respawns the pool and requeues only the lost jobs — retried jobs re-run the
same seed-pinned unit, so output stays byte-identical at any retry count::

    results = run_study("figure1", backend=4,
                        policy=JobPolicy(max_retries=2, timeout_s=120.0,
                                         keep_going=True))
    for entry in results.failures:      # empty on a complete run
        print(entry["key"], entry["kind"], entry["error"])

:mod:`repro.scenarios.faults` scripts deterministic failures (raise,
hang, worker kill) against chosen job keys and attempts through the
``REPRO_FAULT_PLAN`` environment hook, so the supervision layer is itself
testable.

ResultSets persist in a :class:`~repro.analysis.runstore.RunStore`
(named, content-addressed, under ``runs/``), which also caches finished
unit jobs so interrupted or re-run grids resume instead of recomputing::

    store = RunStore()
    results = run_study("figure1", store=store)   # unit jobs cached
    store.save(results, "fig1-nightly")
    again = store.load("fig1-nightly")            # identical ResultSet

The same registry drives the command line (installed as ``repro-run``;
``repro-run COMMAND --help`` lists the flags each command takes)::

    python -m repro.run --list
    python -m repro.run --list-studies
    python -m repro.run pow-baseline --json -
    python -m repro.run kad-lookup --set topology.size=800 --sweep "churn=kad,aggressive"
    python -m repro.run study figure1 --json - --replicates 3 --jobs 4
    python -m repro.run study figure1 --save fig1-nightly
    python -m repro.run ls
    python -m repro.run show fig1-nightly
    python -m repro.run diff fig1-nightly fig1-tonight --tol throughput_tps=0.05
    python -m repro.run gc --dry-run
    python -m repro.run verify

Scenario and study results at a fixed seed are fully deterministic: two
runs of the same spec produce byte-identical ``to_json()`` output, on
every backend at any ``--jobs`` width.  That determinism is *enforced*:
every registered scenario and study has a committed trimmed golden under
``tests/goldens/`` (see :mod:`repro.scenarios.goldens`, ``make
goldens``) that the tier-1 suite diffs against at zero tolerance via
:mod:`repro.analysis.diff`, and saved runs can be compared for drift
with ``repro-run diff``.
"""

from repro.analysis.resultset import ResultSet
from repro.analysis.runstore import RunRecord, RunStore
from repro.scenarios.execution import (
    ExecutionBackend,
    ExecutionPlan,
    IncompletePlanError,
    JobExecutionError,
    JobFailure,
    JobPolicy,
    JobTimeoutError,
    ProcessPoolBackend,
    ResultSlot,
    SerialBackend,
    UnitJob,
    backend_for,
    execute_plan,
)
from repro.scenarios.faults import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
)
from repro.scenarios.adapters import (
    ADAPTERS,
    EXPERIMENTS,
    ArchitectureAdapter,
    Experiment,
    SpecError,
    adapter_for,
    experiment_for,
)
from repro.scenarios.registry import SCENARIOS, get_scenario, register, scenario_names
from repro.scenarios.result import ReplicateResult, ScenarioResult, results_to_json
from repro.scenarios.runner import (
    compile_scenario,
    compile_sweep,
    resolve_spec,
    run_scenario,
    run_sweep,
)
from repro.scenarios.spec import FAMILIES, ScenarioSpec
from repro.scenarios.study import (
    STUDIES,
    StudyMember,
    StudySpec,
    compile_study,
    get_study,
    register_study,
    run_study,
    study_names,
)

__all__ = [
    "ADAPTERS",
    "ArchitectureAdapter",
    "EXPERIMENTS",
    "ExecutionBackend",
    "ExecutionPlan",
    "Experiment",
    "FAMILIES",
    "FaultPlan",
    "FaultSpec",
    "IncompletePlanError",
    "InjectedFault",
    "JobExecutionError",
    "JobFailure",
    "JobPolicy",
    "JobTimeoutError",
    "ProcessPoolBackend",
    "ReplicateResult",
    "ResultSet",
    "ResultSlot",
    "RunRecord",
    "RunStore",
    "SCENARIOS",
    "STUDIES",
    "ScenarioResult",
    "ScenarioSpec",
    "SerialBackend",
    "SpecError",
    "StudyMember",
    "StudySpec",
    "UnitJob",
    "adapter_for",
    "backend_for",
    "compile_scenario",
    "compile_study",
    "compile_sweep",
    "execute_plan",
    "experiment_for",
    "get_scenario",
    "get_study",
    "register",
    "register_study",
    "resolve_spec",
    "results_to_json",
    "run_scenario",
    "run_study",
    "run_sweep",
    "scenario_names",
    "study_names",
]
