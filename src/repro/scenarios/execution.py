"""The execution layer: plans of unit jobs run by pluggable backends.

``run_scenario``/``run_sweep``/``run_study`` no longer execute anything
directly.  They *compile* their specs into an :class:`ExecutionPlan` — a
flat list of independent, seed-pinned :class:`UnitJob` entries (one per
member x variant/sweep point x replicate), grouped into the
:class:`ResultSlot` s that will become
:class:`~repro.scenarios.result.ScenarioResult` objects — and hand the plan
to an :class:`ExecutionBackend`:

* :class:`SerialBackend` (the default) runs jobs in plan order in-process
  and is byte-identical to the historical single-process runner;
* :class:`ProcessPoolBackend` fans jobs out over worker processes
  (``repro-run --jobs N``) and merges by job key, so its output is
  byte-identical to the serial backend no matter which worker finishes
  first.

Every job carries a stable content-addressed key derived from
:meth:`ScenarioSpec.spec_hash` of its canonical unit spec (the concrete
point spec pinned to the replicate's seed, ``replicates`` normalised to 1).
Identical computations therefore share a key across scenarios, studies and
processes, which gives three properties for free:

* deduplication — a plan never runs the same (spec, seed) twice;
* deterministic merge — results are joined by key, not arrival order;
* resume — a :class:`~repro.analysis.runstore.RunStore` can persist
  finished unit jobs and skip them on re-run.

Adapters are pure functions of ``(spec, seed)`` (all randomness flows from
:class:`~repro.sim.rng.SeededRNG`), which is what makes the fan-out safe:
a unit job computes the same metrics in any process, on any backend.

Fault tolerance
---------------
Every backend runs every job under a :class:`JobPolicy` (``None`` means
the default one: no retries, no timeout, fail fast) and books each attempt
in an :class:`~repro.scenarios.attempts.AttemptLedger`, the same object
the distributed broker drives: there is no unsupervised path.
A failed, hung or crashed unit job is retried up to ``max_retries`` times
with exponential backoff (jitter is derived deterministically from the
job key and attempt number, never from wall clock), each attempt is
bounded by an optional per-job wall-clock ``timeout_s``, and
:class:`ProcessPoolBackend` detects dead workers (``BrokenProcessPool``)
and hung workers (timeout deadline), respawns the pool and requeues only
the lost job keys.  Because a unit job is a pure function of
``(spec, seed)``, a retried job recomputes the exact same metrics, so
success output is byte-identical at any retry count.

A job that is given up on either aborts the run (the ``keep_going=False``
default) or — under ``keep_going=True`` — degrades gracefully: the job is
recorded as a :class:`JobFailure` and :meth:`ExecutionPlan.assemble` emits
a *partial* :class:`~repro.analysis.resultset.ResultSet` whose
``failures`` manifest names every failed job (key, error, kind, attempts,
elapsed); result slots touched by a failure are omitted entirely rather
than aggregated over a silently shrunken replicate sample.  A run aborted
without a retry budget ends with the job's own exception; a give-up after
retries, a timeout or a worker crash with :class:`JobExecutionError`.
"""

from __future__ import annotations

import hashlib
import os
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.analysis.resultset import ResultSet
from repro.scenarios.adapters import adapter_for
from repro.scenarios.attempts import AttemptLedger, JobFailure, JobPolicy
from repro.scenarios.result import ReplicateResult, ScenarioResult
from repro.scenarios.spec import ScenarioSpec

#: Progress callback: ``(completed_jobs, total_jobs, job)``; ``job`` is
#: ``None`` for the final "plan done" tick.
ProgressCallback = Callable[[int, int, Optional["UnitJob"]], None]

#: Environment variable holding a serialized fault plan (see
#: :mod:`repro.scenarios.faults`).  Checked once per unit job; when unset —
#: the production case — the cost is a single dict lookup.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"


# ----------------------------------------------------------------------
# Supervision: policies, failures, errors
# ----------------------------------------------------------------------
class JobTimeoutError(RuntimeError):
    """A unit-job attempt exceeded the policy's wall-clock budget."""


class JobExecutionError(RuntimeError):
    """A unit job exhausted its retries under a fail-fast policy.

    Carries the :class:`JobFailure` as ``.failure``; the original adapter
    exception (when there was one) is chained as ``__cause__``.
    """

    def __init__(self, failure: JobFailure) -> None:
        super().__init__(
            f"unit job {failure.key} ({failure.scenario} seed {failure.seed}) "
            f"failed after {failure.attempts} attempt(s) "
            f"[{failure.kind}]: {failure.error}"
        )
        self.failure = failure


class IncompletePlanError(KeyError):
    """``assemble`` was handed neither metrics nor a failure for some jobs.

    Only reachable through a buggy backend (every job must end up either
    computed or in the failure manifest); names the missing keys so the
    hole is debuggable instead of a bare ``KeyError``.
    """

    def __init__(self, missing: Iterable[str]) -> None:
        self.missing = list(missing)
        super().__init__(f"plan is missing metrics for unit jobs {self.missing}")


def _failure_kind(error: BaseException) -> str:
    """The :class:`JobFailure` kind of an exception an attempt ended with."""
    return "timeout" if isinstance(error, JobTimeoutError) else "exception"


def _describe_error(error: BaseException) -> str:
    """One-line, manifest-friendly rendering of an exception."""
    text = str(error).strip()
    name = type(error).__name__
    return f"{name}: {text}" if text else name


def unit_spec(spec: ScenarioSpec, seed: int) -> ScenarioSpec:
    """The canonical spec of one unit job.

    A copy of the concrete point spec pinned to the replicate ``seed`` with
    ``replicates`` normalised to 1 and expansion axes cleared, so the job's
    identity is exactly "this configuration at this seed".
    """
    unit = spec.copy()
    unit.seed = seed
    unit.replicates = 1
    unit.sweeps = {}
    unit.variants = {}
    return unit


@dataclass(frozen=True)
class UnitJob:
    """One independent, seed-pinned run of an adapter.

    ``key`` is content-addressed (:func:`unit_spec` hash plus the seed for
    readability); ``spec`` is the canonical unit spec the key was derived
    from.
    """

    key: str
    spec: ScenarioSpec
    seed: int

    @classmethod
    def for_seeds(cls, spec: ScenarioSpec,
                  seeds: Iterable[int]) -> List["UnitJob"]:
        """The unit jobs of one point, one per seed.

        Unit specs of one point differ only in their seed, so the jobs'
        specs share the point's nested sections — nothing that runs a job
        may write into them — and its canonical JSON is hashed once up to
        the seed; each job finishes a copy of that hash.  Keys equal
        ``unit_spec(spec, seed).spec_hash()`` byte for byte.
        """
        template = replace(spec, replicates=1, sweeps={}, variants={})
        head, tail = template.canonical_around_seed()
        hashed = hashlib.sha256(head.encode("utf-8"))
        jobs: List[UnitJob] = []
        for seed in seeds:
            digest = hashed.copy()
            digest.update(f"{seed}{tail}".encode("utf-8"))
            jobs.append(cls(key=f"{digest.hexdigest()[:16]}-s{seed}",
                            spec=template.with_seed(seed), seed=seed))
        return jobs


@dataclass
class ResultSlot:
    """One :class:`ScenarioResult` to assemble: a spec plus its unit jobs."""

    scenario: str
    family: str
    label: str
    spec: ScenarioSpec
    jobs: List[UnitJob] = field(default_factory=list)

    @classmethod
    def for_point(cls, spec: ScenarioSpec, label: str = "") -> "ResultSlot":
        """The slot of one fully-expanded point: one job per replicate."""
        return cls(
            scenario=spec.name,
            family=spec.family,
            label=label,
            spec=spec,
            jobs=UnitJob.for_seeds(
                spec, [spec.seed + index for index in range(spec.replicates)]),
        )

    def assemble(self, metrics_by_key: Mapping[str, Dict[str, float]]) -> ScenarioResult:
        """Build the ScenarioResult once every job's metrics are known."""
        return ScenarioResult(
            scenario=self.scenario,
            family=self.family,
            label=self.label,
            spec=self.spec.to_dict(),
            replicates=[ReplicateResult(seed=job.seed,
                                        metrics=dict(metrics_by_key[job.key]))
                        for job in self.jobs],
        )


@dataclass
class ExecutionPlan:
    """An ordered set of result slots plus the deduplicated job list.

    The plan is pure data: compiling one is free of side effects, so a
    plan can be inspected (``plan.jobs``, ``len(plan)``), costed, cached
    against a RunStore, or shipped to worker processes before anything
    runs.
    """

    slots: List[ResultSlot] = field(default_factory=list)
    name: str = ""
    description: str = ""

    def __len__(self) -> int:
        return len(self.slots)

    @property
    def jobs(self) -> List[UnitJob]:
        """Every distinct unit job, in first-appearance (plan) order."""
        seen: Dict[str, UnitJob] = {}
        for slot in self.slots:
            for job in slot.jobs:
                seen.setdefault(job.key, job)
        return list(seen.values())

    def job_keys(self) -> List[str]:
        """The distinct job keys, in plan order."""
        return [job.key for job in self.jobs]

    def assemble(
        self,
        metrics_by_key: Mapping[str, Dict[str, float]],
        failures: Optional[Mapping[str, JobFailure]] = None,
    ) -> ResultSet:
        """Join executed metrics back into an ordered ResultSet.

        Every job must be accounted for — either in ``metrics_by_key`` or
        in ``failures`` — else :class:`IncompletePlanError` names the
        holes.  With failures present the output is *partial*: a slot any
        of whose jobs failed is omitted (never aggregated over a silently
        shrunken replicate sample; its finished replicates stay in the
        unit cache for the rerun) and the ResultSet carries a ``failures``
        manifest entry per failed job per affected slot, in plan order.
        """
        failed = dict(failures or {})
        missing = [job.key for job in self.jobs
                   if job.key not in metrics_by_key and job.key not in failed]
        if missing:
            raise IncompletePlanError(missing)
        results: List[ScenarioResult] = []
        manifest: List[Dict[str, object]] = []
        for slot in self.slots:
            lost = [job for job in slot.jobs if job.key in failed]
            if lost:
                for job in lost:
                    entry = failed[job.key].to_dict()
                    entry["scenario"] = slot.scenario
                    entry["label"] = slot.label
                    manifest.append(entry)
                continue
            results.append(slot.assemble(metrics_by_key))
        return ResultSet(
            results,
            name=self.name,
            description=self.description,
            failures=manifest,
        )


# ----------------------------------------------------------------------
# Unit execution (shared by every backend; module-level for pickling)
# ----------------------------------------------------------------------
def execute_unit(job: UnitJob, attempt: int = 1) -> Dict[str, float]:
    """Run one unit job in the current process.

    When :data:`FAULT_PLAN_ENV` is set (tests only) the fault-injection
    harness gets a chance to raise/hang/kill first — see
    :mod:`repro.scenarios.faults`.
    """
    # The env var only scripts *failures* for tests; injected faults are
    # retried or manifested, never returned as metrics.
    # reprolint: ok RL005 (fault-injection hook cannot feed metric values)
    if os.environ.get(FAULT_PLAN_ENV):
        from repro.scenarios.faults import maybe_inject

        maybe_inject(job.key, attempt)
    return adapter_for(job.spec.family).run_replicate(job.spec, job.seed)


def _pool_execute(
    payload: Tuple[str, Dict[str, object], int, int],
) -> Tuple[str, Dict[str, float]]:
    """Worker-side entry point: rebuild the spec from plain data and run it."""
    key, spec_dict, seed, attempt = payload
    spec = ScenarioSpec.from_dict(spec_dict)
    return key, execute_unit(UnitJob(key=key, spec=spec, seed=seed), attempt)


def _timed_out(job: UnitJob, attempt: int,
               timeout_s: float) -> JobTimeoutError:
    return JobTimeoutError(
        f"unit job {job.key} exceeded its {timeout_s:g}s wall-clock "
        f"budget (attempt {attempt})")


def _run_unit_attempt(job: UnitJob, attempt: int,
                      timeout_s: Optional[float]) -> Dict[str, float]:
    """One in-process attempt, optionally bounded by a wall-clock budget.

    The timeout is enforced with a daemon watchdog thread: past the budget
    the attempt counts as failed (:class:`JobTimeoutError`) and its thread
    is abandoned — best-effort detection, unlike the pool backend which
    actually kills the hung worker.  Without a timeout the job runs inline.
    """
    if not timeout_s:
        return execute_unit(job, attempt)
    outcome: Dict[str, object] = {}

    def _target() -> None:
        try:
            outcome["metrics"] = execute_unit(job, attempt)
        except BaseException as error:  # noqa: BLE001 - re-raised below
            outcome["error"] = error

    thread = threading.Thread(target=_target, daemon=True,
                              name=f"unit-{job.key}-a{attempt}")
    thread.start()
    thread.join(timeout_s)
    if thread.is_alive():
        raise _timed_out(job, attempt, timeout_s)
    if "error" in outcome:
        raise outcome["error"]  # type: ignore[misc]
    return outcome["metrics"]  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
@dataclass
class _Supervisor:
    """What one in-process ``execute`` call books: the attempt ledger plus
    the results, failures and progress it settles jobs into."""

    policy: JobPolicy
    total: int
    done: int
    progress: Optional[ProgressCallback]
    on_result: Optional[Callable[[str, Dict[str, float]], None]]
    failures: Optional[Dict[str, JobFailure]]
    fresh: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.ledger = AttemptLedger(self.policy, time.monotonic)

    def succeeded(self, job: UnitJob, metrics: Dict[str, float]) -> None:
        self.ledger.succeeded(job.key)
        self.fresh[job.key] = metrics
        if self.on_result is not None:
            self.on_result(job.key, metrics)
        self._tick(job)

    def failed(self, job: UnitJob, kind: str,
               error: BaseException) -> Optional[float]:
        """Charge a failed attempt; the ``time.monotonic()`` its retry is
        due at, or ``None`` once the job is given up on under
        ``keep_going``.  This is where a fail-fast run ends."""
        verdict = self.ledger.failed(job.key, kind, _describe_error(error),
                                     scenario=job.spec.name, seed=job.seed)
        if not isinstance(verdict, JobFailure):
            return verdict
        if self.failures is not None:
            self.failures[job.key] = verdict
        if not self.policy.keep_going:
            if kind == "exception" and not self.policy.max_retries:
                raise error  # nothing was retried: the job's own exception
            raise JobExecutionError(verdict) from error
        self._tick(job)
        return None

    def _tick(self, job: UnitJob) -> None:
        self.done += 1
        if self.progress is not None:
            self.progress(self.done, self.total, job)


class ExecutionBackend:
    """Executes the jobs of a plan into a ``{job key: metrics}`` mapping.

    ``completed`` maps already-known job keys to their metrics (RunStore
    resume); backends must skip those jobs and must not include them in the
    returned mapping.  ``progress`` is invoked after every finished job
    (cached jobs count as finished immediately).  ``on_result`` is invoked
    with ``(key, metrics)`` the moment each job finishes — this is how
    :func:`execute_plan` persists units incrementally, so an interrupted
    run keeps everything completed so far.

    ``policy`` is the run's :class:`JobPolicy`; ``None`` means the default
    one.  A job that is given up on is recorded into the caller-supplied
    ``failures`` mapping and, unless the policy says ``keep_going``, ends
    the run (see the module docstring for which exception); jobs with a
    recorded failure count as done for progress purposes and are *not*
    part of the returned metrics.
    """

    def execute(
        self,
        plan: ExecutionPlan,
        completed: Optional[Mapping[str, Dict[str, float]]] = None,
        progress: Optional[ProgressCallback] = None,
        on_result: Optional[Callable[[str, Dict[str, float]], None]] = None,
        policy: Optional[JobPolicy] = None,
        failures: Optional[Dict[str, JobFailure]] = None,
    ) -> Dict[str, Dict[str, float]]:
        pending = self.pending_jobs(plan, completed)
        total = len(plan.jobs)
        run = _Supervisor(policy or JobPolicy(), total, total - len(pending),
                          progress, on_result, failures)
        if pending:
            self._drive(pending, run)
        return run.fresh

    def _drive(self, pending: List[UnitJob], run: _Supervisor) -> None:
        """Attempt every pending job until ``run`` has settled it.  The
        in-process backends implement this; a backend that is supervised
        elsewhere (the broker, for the distributed one) overrides
        :meth:`execute` instead."""
        raise NotImplementedError

    @staticmethod
    def pending_jobs(
        plan: ExecutionPlan,
        completed: Optional[Mapping[str, Dict[str, float]]],
    ) -> List[UnitJob]:
        """The plan's jobs minus the already-completed ones, in plan order."""
        done = completed or {}
        return [job for job in plan.jobs if job.key not in done]


class SerialBackend(ExecutionBackend):
    """Run every job in plan order in the current process (the default)."""

    def _drive(self, pending: List[UnitJob], run: _Supervisor) -> None:
        timeout_s = run.policy.timeout_s
        for job in pending:
            while True:
                attempt = run.ledger.dispatched(job.key)
                try:
                    metrics = _run_unit_attempt(job, attempt, timeout_s)
                except Exception as error:  # noqa: BLE001 - supervised
                    retry_at = run.failed(job, _failure_kind(error), error)
                    if retry_at is None:
                        break
                    time.sleep(max(0.0, retry_at - time.monotonic()))
                else:
                    run.succeeded(job, metrics)
                    break


class ProcessPoolBackend(ExecutionBackend):
    """Fan unit jobs out over a pool of worker processes.

    Jobs are dispatched in plan order, one per task (long and short points
    interleave freely), and merged by job key, so the assembled output is
    byte-identical to :class:`SerialBackend` regardless of completion
    order.  ``jobs`` defaults to the host's CPU count.

    The pool is supervised: a dead worker (``BrokenProcessPool``) or a job
    past the wall-clock budget kills and respawns the pool, requeueing only
    the job keys that were lost with it — finished results are never
    recomputed, and because retried jobs re-run the same seed-pinned unit
    spec the merged output stays byte-identical to the fault-free serial
    run.  A pool break charges one attempt to *every* in-flight job (the
    culprit is not observable from the parent); innocents simply recompute
    their deterministic unit on the respawned pool.  A hung worker's kill
    charges only the job past its budget.
    """

    def __init__(self, jobs: Optional[int] = None) -> None:
        self.jobs = int(jobs) if jobs else (os.cpu_count() or 1)
        if self.jobs < 1:
            raise ValueError("a process pool needs at least one worker")

    @staticmethod
    def _context() -> Any:
        import multiprocessing

        # ``fork`` keeps the already-imported interpreter (cheap, and the
        # adapters derive all randomness from the job seed, so inherited
        # state cannot leak into results); fall back to ``spawn`` elsewhere.
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")

    def _drive(self, pending: List[UnitJob], run: _Supervisor) -> None:
        import heapq
        from concurrent.futures import (
            FIRST_COMPLETED,
            ProcessPoolExecutor,
            wait as wait_futures,
        )
        from concurrent.futures.process import BrokenProcessPool

        timeout_s = run.policy.timeout_s
        workers = min(self.jobs, len(pending))
        # A wall-clock budget starts at dispatch, so under one a dispatched
        # job must be genuinely running: one per worker.  Without one, a
        # second job per worker waits in the pool's own queue.
        depth = workers if timeout_s else 2 * workers
        #: Heap of (not-before, plan rank, job): plan order among the ready,
        #: and backoff keeps a retry out of the pool until it is due.
        rank = {job.key: index for index, job in enumerate(pending)}
        queue = [(0.0, rank[job.key], job) for job in pending]
        #: future -> (job, attempt, dispatch time)
        inflight: Dict[Any, Tuple[UnitJob, int, float]] = {}
        executor: Optional[Any] = None

        def enqueue(job: UnitJob, ready_at: float = 0.0) -> None:
            heapq.heappush(queue, (ready_at, rank[job.key], job))

        def dispatch() -> Optional[BaseException]:
            """Move due queue entries into free pool slots; returns the
            error when ``submit`` finds the pool already broken."""
            nonlocal executor
            now = time.monotonic()
            while queue and len(inflight) < depth and queue[0][0] <= now:
                job = heapq.heappop(queue)[2]
                if executor is None:
                    executor = ProcessPoolExecutor(
                        max_workers=workers, mp_context=self._context())
                attempt = run.ledger.dispatched(job.key)
                try:
                    future = executor.submit(
                        _pool_execute,
                        (job.key, job.spec.to_dict(), job.seed, attempt))
                except BrokenProcessPool as error:
                    run.ledger.lost(job.key)  # never reached a worker
                    enqueue(job)
                    return error
                inflight[future] = (job, attempt, time.monotonic())
            return None

        def wait() -> Iterable[Any]:
            """Block until a completion, the next retry that has a free
            slot to go to, or the next wall-clock deadline."""
            wake = [queue[0][0]] if queue and len(inflight) < depth else []
            if timeout_s:
                wake += [started + timeout_s
                         for _, _, started in inflight.values()]
            pause = (max(0.0, min(wake) - time.monotonic())
                     if wake else None)
            if not inflight:  # everything is backing off
                time.sleep(pause or 0.0)
                return ()
            return wait_futures(set(inflight), timeout=pause,
                                return_when=FIRST_COMPLETED).done

        def failed(job: UnitJob, kind: str, error: BaseException) -> None:
            retry_at = run.failed(job, kind, error)
            if retry_at is not None:
                enqueue(job, retry_at)

        def settle(future: Any, broken: Optional[BaseException] = None,
                   ) -> Optional[BaseException]:
            """Book one future; returns the pool's error if that is what
            ended it.  ``broken`` is passed while draining a broken pool,
            where a future not marked yet is lost all the same."""
            job, _, _ = inflight.pop(future)
            error = future.exception() if future.done() else broken
            if error is None:
                run.succeeded(job, future.result()[1])
                return None
            if isinstance(error, BrokenProcessPool) or error is broken:
                failed(job, "worker-crash", error)
                return error
            failed(job, "exception", error)
            return None

        def kill_pool() -> None:
            """Kill the workers; whatever is still in flight is requeued
            uncharged, at the same attempt and ahead of any retry."""
            nonlocal executor
            for job, _, _ in inflight.values():
                run.ledger.lost(job.key)
                enqueue(job)
            inflight.clear()
            _shutdown_pool(executor, kill=True)
            executor = None

        try:
            while queue or inflight:
                broken = dispatch()
                if broken is None:
                    for future in wait():
                        broken = settle(future) or broken
                if broken is not None:
                    # A broken pool fails every future it still holds.
                    for future in list(inflight):
                        settle(future, broken)
                    kill_pool()
                elif timeout_s:
                    now = time.monotonic()
                    hung = [future for future, (_, _, started)
                            in inflight.items() if now - started >= timeout_s]
                    for future in hung:
                        job, attempt, _ = inflight.pop(future)
                        failed(job, "timeout",
                               _timed_out(job, attempt, timeout_s))
                    if hung:
                        # A hung worker is only reclaimable by killing the
                        # pool; the culprit is known here, unlike a break.
                        kill_pool()
        except BaseException:
            _shutdown_pool(executor, kill=True)
            raise
        _shutdown_pool(executor)


def _shutdown_pool(executor: Optional[Any], kill: bool = False) -> None:
    """Shut a ProcessPoolExecutor down, killing its workers when asked.

    ``kill`` reaches into the executor's worker table because there is no
    public way to reclaim a hung worker; the processes are killed first so
    ``shutdown`` cannot block on them.
    """
    if executor is None:
        return
    if kill:
        for process in list((getattr(executor, "_processes", None) or {})
                            .values()):
            try:
                process.kill()
            except (OSError, AttributeError):
                pass
    try:
        executor.shutdown(wait=not kill, cancel_futures=True)
    except Exception:  # noqa: BLE001 - best-effort teardown
        pass


def backend_for(jobs: Optional[int] = None) -> ExecutionBackend:
    """The backend for a ``--jobs`` value: serial for ``None``/0/1."""
    if jobs is None or int(jobs) <= 1:
        return SerialBackend()
    return ProcessPoolBackend(int(jobs))


# ----------------------------------------------------------------------
# Plan execution
# ----------------------------------------------------------------------
def execute_plan(
    plan: ExecutionPlan,
    backend: Optional[Union[ExecutionBackend, int]] = None,
    store: Optional[Any] = None,
    progress: Optional[Union[bool, ProgressCallback]] = None,
    resume: bool = True,
    policy: Optional[JobPolicy] = None,
) -> ResultSet:
    """Run a plan on a backend and assemble the ResultSet.

    ``backend`` is an :class:`ExecutionBackend` instance or a ``--jobs``
    style integer (``None``/0/1 → serial).  ``store`` is a
    :class:`~repro.analysis.runstore.RunStore` used for spec-hash-based
    resume: unit jobs already recorded there are not re-executed, and
    freshly computed ones are recorded *as they finish*, so a killed or
    interrupted run resumes from the last completed job.  ``resume=False``
    (the CLI's ``--no-resume``) bypasses the cache *read*: every job
    re-executes, and the fresh metrics overwrite whatever was cached.
    ``progress`` is a callback (or ``True`` for a stderr line per job).
    ``policy`` is the run's :class:`JobPolicy` (``None`` means the default
    one): failed jobs are retried/timed out per the policy and — under
    ``keep_going`` — collected into the assembled ResultSet's failure
    manifest instead of aborting the run.  Failed jobs never reach the
    store's unit cache, so a rerun against the same store executes only
    the failed units.
    """
    if not isinstance(backend, ExecutionBackend):
        backend = backend_for(backend)
    callback = _stderr_progress if progress is True else (progress or None)

    completed: Dict[str, Dict[str, float]] = {}
    on_result = None
    if store is not None:
        if resume:
            completed = store.completed_units(plan.job_keys())
        on_result = store.put_unit
    if callback is not None and completed:
        callback(len(completed), len(plan.jobs), None)

    failures: Dict[str, JobFailure] = {}
    fresh = backend.execute(plan, completed=completed, progress=callback,
                            on_result=on_result, policy=policy,
                            failures=failures)

    metrics_by_key = dict(completed)
    metrics_by_key.update(fresh)
    return plan.assemble(metrics_by_key, failures=failures)


def _stderr_progress(done: int, total: int, job: Optional[UnitJob]) -> None:
    """The ``--progress`` renderer: one stderr line per completed job."""
    if job is None:
        print(f"  [{done}/{total}] resumed from run store", file=sys.stderr)
        return
    print(f"  [{done}/{total}] {job.spec.name} seed={job.seed} ({job.key})",
          file=sys.stderr)
