"""The five workloads: what one *pass* is, on which backend, at which size.

A pass is the user-visible unit of work — compile the spec(s) into an
``ExecutionPlan``, execute it on the workload's backend, assemble the
``ResultSet`` and serialise it (``RunStore.save`` where the workload has a
store, ``to_json`` otherwise).  The harness is a closed loop with one
client: the next pass starts only when the previous one returned.

The specs are generated here from ``--seed`` (added to every spec's
registered base seed); the program under test only ever sees the specs.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, Optional

from benchmarks.e2e.procs import BrokerSystem
from benchmarks.e2e.spans import Tracer
from repro.analysis.runstore import RunStore
from repro.distributed.backend import DistributedBackend
from repro.scenarios.adapters import adapter_for
from repro.scenarios.execution import (
    ExecutionBackend,
    ExecutionPlan,
    SerialBackend,
    execute_plan,
)
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import compile_scenario, compile_sweep, resolve_spec
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.study import compile_study, get_study


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one ``--scale``; ``full`` is the benchmark."""

    figure1_replicates: int
    kad_nodes: int
    kad_lookups: int
    sweep_points: int
    sweep_replicates: int
    broker_points: int
    broker_replicates: int
    #: Sweep points of the ledger's platform rows (x ``sweep_replicates``).
    ledger_points: int
    #: Plan size of the four transport x journal variants in the ledger.
    variant_points: int
    #: Calls behind each of the ledger's slow rows (their median is kept).
    ledger_repeat: int
    min_passes: int
    #: Set-ups per run (the first in this process, the rest in children).
    setup_samples: int


SCALES: Dict[str, Sizes] = {
    # Sized so a pass takes 0.2-1.5 s on a 2-core host: the 18 s window then
    # holds 13 or more passes of every workload and its median rides out a
    # noisy-neighbour burst of a few seconds.
    "full": Sizes(figure1_replicates=4, kad_nodes=20_000, kad_lookups=3_000,
                  sweep_points=250, sweep_replicates=8,
                  broker_points=30, broker_replicates=2,
                  ledger_points=100, variant_points=6, ledger_repeat=5,
                  min_passes=5, setup_samples=3),
    # The self-test's scale: one pass of everything in a few seconds.
    "tiny": Sizes(figure1_replicates=1, kad_nodes=2_000, kad_lookups=100,
                  sweep_points=10, sweep_replicates=2,
                  broker_points=4, broker_replicates=2,
                  ledger_points=5, variant_points=2, ledger_repeat=1,
                  min_passes=1, setup_samples=1),
}


def sweep_spec(points: int, replicates: int, seed: int) -> ScenarioSpec:
    """``pos-slashing`` at 50 rounds swept over ``points`` vote fractions.

    About 55 us of model time per unit job, so the platform around the
    model — not the model — is what a pass over this spec measures.
    """
    spec = get_scenario("pos-slashing").with_overrides(
        {"architecture.rounds": 50})
    spec.seed += seed
    spec.replicates = replicates
    spec.sweeps = {"architecture.multi_vote_fraction":
                   [round(index / points, 6) for index in range(points)]}
    return spec


def figure1_plan(replicates: int, seed: int) -> ExecutionPlan:
    """The registered ``figure1`` study with every member's seed shifted."""
    study = get_study("figure1")
    shift = {member.label: {"seed": get_scenario(member.scenario).seed + seed}
             for member in study.members}
    return compile_study(study, replicates=replicates, member_overrides=shift)


#: Seed offsets at which ``kademlia-churn-100k`` runs to completion at both
#: scales.  At the parent commit about one seed in four raises IndexError in
#: ``VecRoutingTable.refresh`` (it draws a candidate from an empty bucket
#: range that starts past the last node).  The benchmark may not touch
#: ``src/`` and a workload may hold no operation that fails, so ``--seed``
#: picks from this list where the other workloads add it to the base seed.
KAD_SEED_OFFSETS = (0, 1, 2, 3, 6, 10, 12, 13, 15, 19, 20, 22, 24, 26, 27, 30,
                    31, 32, 33, 38, 39, 41, 44, 45, 47, 49, 50, 51, 54, 55, 56,
                    58)


def kad_spec(nodes: int, lookups: int, seed: int) -> ScenarioSpec:
    """``kademlia-churn-100k`` (the vectorized substrate) at ``nodes``."""
    spec = resolve_spec("kademlia-churn-100k", overrides={
        "topology.size": nodes, "workload.lookups": lookups})
    spec.seed += KAD_SEED_OFFSETS[seed % len(KAD_SEED_OFFSETS)]
    return spec


@dataclass
class PassOutcome:
    """What one pass did: its wall clock and what the output check needs."""

    wall_s: float
    sha256: str
    jobs: int
    executed: int
    failures: int
    cached: int = 0


class Workload:
    """One named workload; subclasses pick the plan, backend and store."""

    name = ""
    #: Whether a correct pass executes every job (False: none — resume).
    executes_jobs = True
    #: A serial pass without a store *is* a ``SerialBackend`` run of its
    #: plan, so its warm-up pass doubles as the reference.
    warmup_is_reference = True

    def __init__(self, sizes: Sizes, seed: int, workdir: Path) -> None:
        self.sizes = sizes
        self.seed = seed
        self.workdir = Path(workdir)
        self.backend: ExecutionBackend = SerialBackend()
        #: sha256 of the ``SerialBackend`` output of this plan (set-up).
        self.reference_sha: Optional[str] = None

    # -- what subclasses define ----------------------------------------
    def compile(self) -> ExecutionPlan:
        raise NotImplementedError

    def start(self) -> None:
        """Bring up stores/processes (part of ``setup_s``)."""

    def open_store(self, tag: str) -> Optional[RunStore]:
        """The store of pass ``tag``; runs outside the timed region."""
        return None

    def close_store(self, tag: str) -> None:
        """Undo :meth:`open_store`; runs outside the timed region."""

    def stop(self) -> None:
        """Tear down whatever :meth:`start` brought up."""

    def abort(self) -> None:
        """Watchdog path; like :meth:`stop` but never waits on a peer."""
        self.stop()

    # -- set-up --------------------------------------------------------
    def setup(self) -> PassOutcome:
        """Start, take the serial reference, and run the warm-up pass."""
        self.start()
        if self.reference_sha is None and not self.warmup_is_reference:
            self.reference_sha = _sha256(
                execute_plan(self.compile(), SerialBackend()).to_json())
        warmup = run_pass(self, "warmup")
        if self.reference_sha is None:
            self.reference_sha = warmup.sha256
        return warmup


def _sha256(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def fresh_dir(workdir: Path, label: str) -> Path:
    """A new directory ``label-XXXXXXXX`` of ``workdir``, named like no other.

    The work directory spreads its subdirectories over the disk by the hash
    of their names (``cli._spread_subdirectories``): a name that an earlier
    pass or run had would lead back to the inodes it deleted.
    """
    return Path(tempfile.mkdtemp(prefix=f"{label}-", dir=workdir))


def run_pass(workload: Workload, tag: str,
             tracer: Optional[Tracer] = None) -> PassOutcome:
    """One pass of ``workload``; ``tracer`` selects the traced variant.

    The untraced pass is the program exactly as a user drives it
    (``execute_plan``).  The traced pass drives the same public calls
    itself — ``compile -> completed_units -> adapter.setup/run/collect ->
    put_unit -> assemble -> save`` — with a span around each, because the
    loop inside ``execute_plan`` cannot be observed from outside.
    """
    store = workload.open_store(tag)
    try:
        if tracer is None:
            return _plain_pass(workload, store, tag)
        return _traced_pass(workload, store, tag, tracer)
    finally:
        workload.close_store(tag)


def _plain_pass(workload: Workload, store: Optional[RunStore],
                tag: str) -> PassOutcome:
    executed = 0

    def progress(done: int, total: int, job) -> None:
        nonlocal executed
        if job is not None:
            executed += 1

    started = perf_counter()
    plan = workload.compile()
    results = execute_plan(plan, backend=workload.backend, store=store,
                           progress=progress)
    digest = _persist(results, store, tag)
    wall = perf_counter() - started
    jobs = len(plan.jobs)
    return PassOutcome(wall, digest, jobs, executed, len(results.failures),
                       cached=jobs - executed)


def _persist(results, store: Optional[RunStore], tag: str) -> str:
    """Serialise the pass's output the way a user would; returns its sha256.

    ``RunStore.save`` addresses the object by the sha256 of its
    ``to_json()`` payload, so the saved record already carries the digest
    the output check needs.
    """
    if store is not None:
        return store.save(results, f"pass-{tag}").object_hash
    return _sha256(results.to_json())


def _traced_pass(workload: Workload, store: Optional[RunStore], tag: str,
                 tracer: Tracer) -> PassOutcome:
    begin, end = tracer.begin, tracer.end
    started = perf_counter()
    root = begin("pass")
    span = begin("plan.compile")
    plan = workload.compile()
    jobs = plan.jobs
    end(span)
    completed: Dict[str, Dict[str, float]] = {}
    if store is not None:
        span = begin("runstore.completed_units")
        completed = store.completed_units([job.key for job in jobs])
        end(span)
    metrics_by_key = dict(completed)
    failures: Dict[str, object] = {}
    executed = 0
    if isinstance(workload.backend, SerialBackend):
        for job in jobs:
            if job.key in completed:
                continue
            adapter = adapter_for(job.spec.family)
            span = begin("adapter.setup")
            context = adapter.setup(job.spec, job.seed)
            end(span)
            span = begin("adapter.run")
            outcome = adapter.run(context)
            end(span)
            span = begin("adapter.collect")
            metrics = adapter.collect(context, outcome)
            end(span)
            if store is not None:
                span = begin("runstore.put_unit")
                store.put_unit(job.key, metrics)
                end(span)
            metrics_by_key[job.key] = metrics
            executed += 1
    else:
        # The work happens in other processes: one opaque span, split by
        # the distributed.* ledger rows instead.
        span = begin("backend.execute")
        fresh = workload.backend.execute(plan, completed=completed,
                                         failures=failures)
        end(span)
        metrics_by_key.update(fresh)
        executed = len(fresh)
    span = begin("plan.assemble")
    results = plan.assemble(metrics_by_key, failures=failures)
    end(span)
    span = begin("runstore.save" if store is not None else "resultset.to_json")
    digest = _persist(results, store, tag)
    end(span)
    end(root)
    wall = perf_counter() - started
    tracer.next_pass()
    return PassOutcome(wall, digest, len(jobs), executed,
                       len(results.failures), cached=len(completed))


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------
class Figure1Serial(Workload):
    """Canonical study, serial, no store: the models are the wall."""

    name = "figure1-serial"

    def compile(self) -> ExecutionPlan:
        return figure1_plan(self.sizes.figure1_replicates, self.seed)


class KadFast(Workload):
    """The vectorized, memory-bound substrate: one large unit job."""

    name = "kad-fast"

    def __init__(self, sizes: Sizes, seed: int, workdir: Path) -> None:
        super().__init__(sizes, seed, workdir)
        self.spec = kad_spec(sizes.kad_nodes, sizes.kad_lookups, seed)

    def compile(self) -> ExecutionPlan:
        return compile_scenario(self.spec)


class SweepCold(Workload):
    """Many tiny jobs into a fresh RunStore: the platform's write path."""

    name = "sweep-cold"
    warmup_is_reference = False

    def __init__(self, sizes: Sizes, seed: int, workdir: Path) -> None:
        super().__init__(sizes, seed, workdir)
        self.spec = sweep_spec(sizes.sweep_points, sizes.sweep_replicates,
                               seed)

    def compile(self) -> ExecutionPlan:
        return compile_sweep(self.spec)

    def open_store(self, tag: str) -> Optional[RunStore]:
        self.store_dir = fresh_dir(self.workdir, "cold")
        return RunStore(self.store_dir)

    def close_store(self, tag: str) -> None:
        shutil.rmtree(self.store_dir, ignore_errors=True)


class SweepResume(SweepCold):
    """The same plan against a populated store: the platform's read path."""

    name = "sweep-resume"
    executes_jobs = False

    def start(self) -> None:
        # Populating the store is itself the serial run of this plan.
        self.store_dir = fresh_dir(self.workdir, "resume")
        store = RunStore(self.store_dir)
        self.reference_sha = _sha256(execute_plan(
            self.compile(), SerialBackend(), store=store).to_json())

    def open_store(self, tag: str) -> Optional[RunStore]:
        return RunStore(self.store_dir)

    def close_store(self, tag: str) -> None:
        pass  # the populated store is the workload; the workdir owns it


class BrokerTcp(Workload):
    """Tiny jobs through broker + workers over TCP loopback, journal on."""

    name = "broker-tcp"
    warmup_is_reference = False

    def __init__(self, sizes: Sizes, seed: int, workdir: Path,
                 transport: str = "tcp", journal: bool = True,
                 points: Optional[int] = None) -> None:
        """The defaults are the workload; the ledger varies the deployment."""
        super().__init__(sizes, seed, workdir)
        self.spec = sweep_spec(points or sizes.broker_points,
                               sizes.broker_replicates, seed)
        self.system = BrokerSystem(fresh_dir(self.workdir, "broker"),
                                   transport=transport, journal=journal)

    def compile(self) -> ExecutionPlan:
        return compile_sweep(self.spec)

    def start(self) -> None:
        # Fail fast: a lost broker must fail the pass, not be ridden out.
        self.backend = DistributedBackend(self.system.start(), reattach=False)

    def stop(self) -> None:
        self.system.stop()

    def abort(self) -> None:
        self.system.kill()


WORKLOADS = {cls.name: cls for cls in
             (Figure1Serial, KadFast, SweepCold, SweepResume, BrokerTcp)}
