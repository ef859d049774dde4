"""``repro-broker``: the job queue at the centre of distributed execution.

The broker holds submitted runs — each an ordered list of seed-pinned
unit jobs plus a :class:`~repro.scenarios.execution.JobPolicy` — and
dispatches them to workers under *leases*: a leased job belongs to one
worker until it reports ``complete``/``fail`` or its lease expires
(missed heartbeats, dropped connection).  Each run's attempts are booked
in an :class:`~repro.scenarios.attempts.AttemptLedger`, the very object
the in-process backends drive, so the accounting is theirs by construction:

- a **reported failure** charges one attempt; below the policy's budget
  the ledger's verdict is the time the retry is due (the policy's
  deterministic backoff), at the budget it is the
  :class:`~repro.scenarios.execution.JobFailure` for the run's manifest;
- a **lost lease** (worker disconnect or expiry) requeues the job
  *uncharged* at the same attempt number — infrastructure failures never
  eat into a job's retry budget, just as the pool backend requeues
  bystanders after a hung-worker kill;
- a **duplicate completion** for an already-settled lease is dropped
  (first report wins), so a worker that was presumed dead but limps back
  cannot double-report.

Because unit jobs are pure functions of ``(spec, seed)``, any sequence of
retries, requeues and worker deaths converges on the same metrics, and
the submitting client's merge-by-key output is byte-identical to a
serial run.

Durability and lifecycle (see :mod:`repro.distributed.journal`): with a
journal configured, every submit, charge, settlement and cancel is
appended to a per-run write-ahead file and replayed on start, so
``kill -9`` mid-run resumes with in-flight leases requeued uncharged; a
client that reconnects and re-submits the same run id *re-attaches* and
receives every settled event again before the live ones.  Settled runs
are *retired* — removed from the queue and their journal deleted — once
their ``run-done`` event is delivered (or the run is cancelled and
drained), so an always-on broker does not leak a ``_Run`` per study.
Every worker heartbeat is answered with a ``heartbeat-ack``;
``ok=false`` tells the worker its lease was reaped so it abandons the
orphaned attempt.

The queue logic (:class:`BrokerQueue`) is pure threads-and-state with no
sockets, so the lease/retry/accounting behaviour is unit-testable
without a network; :class:`BrokerServer` wraps it in a thread-per-
connection frame loop.  Run as a process::

    repro-broker --listen 127.0.0.1:7480
    repro-broker --listen unix:/tmp/repro-broker.sock --journal runs/journal
"""

from __future__ import annotations

import argparse
import heapq
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field
from queue import Empty, Queue
from typing import Dict, List, Optional, Sequence

from repro.distributed.journal import SCHEMA_VERSION, JournalDir, RunJournal
from repro.distributed.protocol import (
    FrameError,
    accept,
    create_listener,
    listener_address,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.scenarios.attempts import AttemptLedger, JobFailure, JobPolicy

#: Seconds a lease lives without a heartbeat before the job is requeued.
DEFAULT_LEASE_TTL_S = 15.0

_POLICY_FIELDS = ("max_retries", "timeout_s", "keep_going", "backoff_base_s",
                  "backoff_factor", "backoff_max_s", "backoff_jitter")


def policy_to_dict(policy: JobPolicy) -> Dict[str, object]:
    """A JobPolicy as plain wire data."""
    return {name: getattr(policy, name) for name in _POLICY_FIELDS}


def policy_from_dict(data: Optional[Dict[str, object]]) -> JobPolicy:
    """Rebuild a JobPolicy from wire data (missing fields keep defaults)."""
    data = data or {}
    kwargs = {name: data[name] for name in _POLICY_FIELDS if name in data}
    return JobPolicy(**kwargs)  # type: ignore[arg-type]


@dataclass
class _Job:
    """One unit job inside a submitted run."""

    key: str
    spec: Dict[str, object]
    seed: int
    scenario: str
    priority: int
    state: str = "pending"  # pending | leased | done | failed


def _jobs_from(entries: Sequence[Dict[str, object]]) -> Dict[str, _Job]:
    """A run's jobs by key in plan order, from submitted or journaled
    entries (plans deduplicate; a duplicate key keeps its first entry)."""
    jobs: Dict[str, _Job] = {}
    for index, entry in enumerate(entries):
        key = str(entry["key"])
        if key not in jobs:
            jobs[key] = _Job(
                key=key,
                spec=dict(entry["spec"]),  # type: ignore[arg-type]
                seed=int(entry["seed"]),  # type: ignore[arg-type]
                scenario=str(entry.get("scenario", "")),
                priority=index,
            )
    return jobs


@dataclass
class _Run:
    """One submitted run: its jobs, attempt ledger (which carries the
    policy), event stream and lifecycle."""

    run_id: str
    ledger: AttemptLedger
    order: int = 0
    jobs: Dict[str, _Job] = field(default_factory=dict)
    events: "Queue[Dict[str, object]]" = field(default_factory=Queue)
    open_jobs: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: bool = False
    #: True once run-done has been emitted (all jobs settled).
    done: bool = False
    #: Bumped on every (re)attach; a stale stream's epoch no longer
    #: matches, so its cancel-on-dead-client cannot kill the run.
    attach_seq: int = 0
    attached: bool = True
    detached_at: float = 0.0
    #: key -> metrics; kept until retirement so a re-attaching client can
    #: be replayed every settled event.
    results: Dict[str, Dict[str, float]] = field(default_factory=dict)
    failures: Dict[str, Dict[str, object]] = field(default_factory=dict)
    journal: Optional[RunJournal] = None


@dataclass
class _Lease:
    """One dispatched job: who holds it and until when."""

    lease_id: str
    run_id: str
    key: str
    worker: str
    attempt: int
    deadline: float


class BrokerQueue:
    """The broker's job queue and lease table (no sockets, fully locked).

    All methods are thread-safe.  ``lease`` blocks up to ``wait_s`` for a
    ready job and returns a wire-shaped payload dict (``job`` / ``idle``
    / ``stop``), so the server can forward it verbatim.

    ``journal`` (a :class:`~repro.distributed.journal.JournalDir`)
    enables the write-ahead journal; :meth:`recover` replays it.
    ``orphan_ttl`` bounds how long a finished-or-clientless run may sit
    unattached before :meth:`sweep_orphans` retires it.
    """

    def __init__(self, lease_ttl: float = DEFAULT_LEASE_TTL_S,
                 journal: Optional[JournalDir] = None,
                 orphan_ttl: Optional[float] = None) -> None:
        self.lease_ttl = float(lease_ttl)
        self.orphan_ttl = (float(orphan_ttl) if orphan_ttl is not None
                           else max(60.0, 4.0 * self.lease_ttl))
        self._journal = journal
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._runs: Dict[str, _Run] = {}
        #: (ready_at, run_seq, priority, seq, run_id, key) — plan order
        #: within a run, submission order across runs, backoff-aware.
        self._heap: List[tuple] = []
        self._leases: Dict[str, _Lease] = {}
        self._run_seq = itertools.count()
        self._seq = itertools.count()
        self._lease_seq = itertools.count(1)
        self._stopping = False

    # -- submission ----------------------------------------------------
    def submit(self, run_id: str, jobs: Sequence[Dict[str, object]],
               policy: Optional[JobPolicy] = None) -> "Queue[Dict[str, object]]":
        """Enqueue a run's jobs; returns its event stream.

        ``jobs`` entries are dicts with ``key``, ``spec`` (a ScenarioSpec
        ``to_dict``), ``seed`` and ``scenario``.  An empty job list
        completes immediately (the ``run-done`` event is pre-queued).
        """
        with self._lock:
            if run_id in self._runs:
                raise ValueError(f"run {run_id!r} already submitted")
            order = next(self._run_seq)
            run = _Run(run_id=run_id, order=order, ledger=AttemptLedger(
                policy or JobPolicy(), time.monotonic))
            self._runs[run_id] = run
            run.jobs = _jobs_from(jobs)
            run.open_jobs = len(run.jobs)
            self._journal_open(run)
            self._journal_append(run, {
                "v": SCHEMA_VERSION, "type": "submit", "run": run_id,
                "order": order, "policy": policy_to_dict(run.ledger.policy),
                "jobs": [{"key": job.key, "spec": job.spec,
                          "seed": job.seed, "scenario": job.scenario}
                         for job in run.jobs.values()],
            })
            for job in run.jobs.values():
                self._push(run, job, ready_at=0.0)
            if run.open_jobs == 0:
                self._finish_run(run)
            self._ready.notify_all()
            return run.events

    def attach(self, run_id: str,
               jobs: Optional[Sequence[Dict[str, object]]] = None,
               ) -> "Queue[Dict[str, object]]":
        """Re-attach a client to a live run after a lost connection.

        The re-submitted job keys must all belong to the run (a *different*
        job set under a reused run id is still rejected).  Returns a fresh
        event stream primed with a ``job-done``/``job-failed`` event for
        every already-settled job (and ``run-done`` if the run finished
        while no client was attached), then the live events follow.  The
        previous stream's epoch is invalidated, so a zombie stream thread
        can no longer cancel the run.
        """
        with self._lock:
            run = self._runs.get(run_id)
            if run is None:
                raise ValueError(f"unknown run {run_id!r}")
            if run.cancelled:
                raise ValueError(f"run {run_id!r} was cancelled")
            if jobs is not None:
                unknown = [str(entry["key"]) for entry in jobs
                           if str(entry["key"]) not in run.jobs]
                if unknown:
                    raise ValueError(
                        f"run {run_id!r} already submitted with a "
                        f"different job set ({len(unknown)} unknown "
                        f"key(s), e.g. {unknown[0]!r})")
            run.attach_seq += 1
            run.attached = True
            events: "Queue[Dict[str, object]]" = Queue()
            for job in sorted(run.jobs.values(), key=lambda j: j.priority):
                if job.key in run.results:
                    events.put({"type": "job-done", "key": job.key,
                                "metrics": dict(run.results[job.key]),
                                "worker": ""})
                elif job.key in run.failures:
                    events.put({"type": "job-failed", "key": job.key,
                                "failure": dict(run.failures[job.key])})
            if run.done:
                events.put({"type": "run-done", "run": run.run_id,
                            "completed": run.completed,
                            "failed": run.failed})
            run.events = events
            return events

    def cancel(self, run_id: str, epoch: Optional[int] = None) -> None:
        """Drop a run: revoke its leases, drain its pending jobs, retire.

        ``epoch`` (from :meth:`stream_epoch`) makes the cancel conditional:
        a stale stream whose client re-attached since cannot cancel the
        run out from under the new stream.
        """
        with self._ready:
            run = self._runs.get(run_id)
            if run is None:
                return
            if epoch is not None and epoch != run.attach_seq:
                return
            self._cancel_locked(run)
            self._ready.notify_all()

    # -- dispatch ------------------------------------------------------
    def lease(self, worker: str, wait_s: float = 0.0) -> Dict[str, object]:
        """The next ready job for ``worker``; blocks up to ``wait_s``.

        Returns ``{"type": "job", ...}`` with the lease id, spec, seed,
        attempt number and timeout, ``{"type": "idle"}`` when nothing
        became ready in time, or ``{"type": "stop"}`` when the broker is
        shutting down.
        """
        deadline = time.monotonic() + max(0.0, wait_s)
        with self._ready:
            while True:
                if self._stopping:
                    return {"type": "stop"}
                now = time.monotonic()
                self._expire_locked(now)
                entry = self._pop_ready(now)
                if entry is not None:
                    return self._grant(entry, worker, now)
                remaining = deadline - now
                if remaining <= 0:
                    return {"type": "idle"}
                if self._heap:
                    remaining = min(remaining, self._heap[0][0] - now)
                self._ready.wait(timeout=max(0.01, remaining))

    def heartbeat(self, lease_id: str) -> bool:
        """Extend a live lease; ``False`` when it is gone (reaped lease).

        The server forwards the verdict as a ``heartbeat-ack`` so the
        worker can abandon an attempt whose lease was requeued.
        """
        with self._lock:
            lease = self._leases.get(lease_id)
            if lease is None:
                return False
            lease.deadline = time.monotonic() + self.lease_ttl
            return True

    # -- settlement ----------------------------------------------------
    def complete(self, lease_id: str, metrics: Dict[str, float]) -> bool:
        """Settle a lease with metrics; ``False`` drops a stale duplicate."""
        with self._lock:
            lease = self._leases.pop(lease_id, None)
            if lease is None:
                return False  # expired/duplicate: the first report won
            run = self._runs[lease.run_id]
            job = run.jobs[lease.key]
            run.ledger.succeeded(job.key)
            run.results[job.key] = dict(metrics)
            self._settle_locked(
                run, job, "done",
                record={"type": "done", "key": job.key,
                        "metrics": dict(metrics)},
                event={"type": "job-done", "key": job.key,
                       "metrics": dict(metrics), "worker": lease.worker})
            return True

    def fail(self, lease_id: str, kind: str, error: str) -> bool:
        """Settle a lease with a failure: charge an attempt, retry or
        manifest per the run's policy; ``False`` drops a stale report."""
        with self._ready:
            lease = self._leases.pop(lease_id, None)
            if lease is None:
                return False
            run = self._runs[lease.run_id]
            job = run.jobs[lease.key]
            verdict = run.ledger.failed(job.key, kind, error,
                                        scenario=job.scenario, seed=job.seed)
            if not isinstance(verdict, JobFailure):  # the retry's due time
                job.state = "pending"
                self._journal_append(run, {"type": "charge", "key": job.key,
                                           "attempts": lease.attempt})
                self._push(run, job, ready_at=verdict)
                self._ready.notify_all()
                return True
            run.failures[job.key] = verdict.to_dict()
            self._settle_locked(
                run, job, "failed",
                record={"type": "failed", "key": job.key,
                        "failure": verdict.to_dict()},
                event={"type": "job-failed", "key": job.key,
                       "failure": verdict.to_dict()})
            return True

    # -- lease loss (uncharged requeue) --------------------------------
    def release_worker(self, worker: str) -> int:
        """Requeue every lease held by a departed worker, uncharged."""
        with self._ready:
            lost = [lease for lease in self._leases.values()
                    if lease.worker == worker]
            for lease in lost:
                self._requeue_locked(lease)
            if lost:
                self._ready.notify_all()
            return len(lost)

    def expire(self, now: Optional[float] = None) -> int:
        """Requeue every lease past its heartbeat deadline, uncharged."""
        with self._ready:
            count = self._expire_locked(now if now is not None
                                        else time.monotonic())
            if count:
                self._ready.notify_all()
            return count

    # -- lifecycle -----------------------------------------------------
    def retire(self, run_id: str) -> bool:
        """Drop a settled run once its ``run-done`` has been delivered.

        Removes the run from ``_runs`` and deletes its
        journal file.  ``False`` when the run is unknown or still open —
        retiring is only legal after ``run-done``.
        """
        with self._lock:
            run = self._runs.get(run_id)
            if run is None or not run.done or run.open_jobs > 0:
                return False
            self._retire_locked(run)
            return True

    def detach(self, run_id: str, epoch: int) -> None:
        """Record that the stream holding ``epoch`` is gone.

        An unattached run is fair game for :meth:`sweep_orphans` once
        ``orphan_ttl`` passes without a re-attach.
        """
        with self._lock:
            run = self._runs.get(run_id)
            if run is not None and run.attach_seq == epoch:
                run.attached = False
                run.detached_at = time.monotonic()

    def sweep_orphans(self, now: Optional[float] = None) -> int:
        """Retire runs whose client has been gone past ``orphan_ttl``.

        Finished runs are dropped outright; unfinished ones are cancelled
        (leases revoked, pending jobs drained) and retire once drained.
        This is the backstop that keeps a journal-restored broker from
        holding runs forever when the submitting client never returns.
        """
        if now is None:
            now = time.monotonic()
        swept = 0
        with self._ready:
            for run in list(self._runs.values()):
                if run.attached or now - run.detached_at < self.orphan_ttl:
                    continue
                if run.done:
                    self._retire_locked(run)
                else:
                    self._cancel_locked(run)
                swept += 1
            if swept:
                self._ready.notify_all()
        return swept

    def recover(self) -> List[str]:
        """Replay the journal directory into the queue (broker start).

        Settled jobs keep their recorded metrics/failures; jobs that were
        pending or leased at the crash come back pending at the same
        attempt number (lost leases are never charged).  Restored runs
        start unattached: a client that re-submits the same run id
        re-attaches, anything else is swept after ``orphan_ttl``.
        """
        if self._journal is None:
            return []
        restored: List[str] = []
        max_order = -1
        with self._ready:
            states, dead = self._journal.replay()
            for path in dead:
                print(f"broker: journal {path} holds no run (torn or "
                      f"damaged submit); deleting it", file=sys.stderr)
                self._journal.discard(path)
            for state in states:
                max_order = max(max_order, state.order)
                if state.run_id in self._runs:
                    continue
                if state.cancelled:
                    # A cancelled run has no client and, post-crash, no
                    # leases left to drain: drop its journal outright.
                    self._journal.discard(
                        self._journal.path_for(state.run_id))
                    continue
                run = _Run(run_id=state.run_id, order=state.order,
                           ledger=AttemptLedger(
                               policy_from_dict(state.policy),
                               time.monotonic, charges=state.charges))
                run.jobs = _jobs_from(state.jobs)
                for key, job in run.jobs.items():
                    if key in state.results:
                        job.state = "done"
                        run.completed += 1
                        run.results[key] = state.results[key]
                    elif key in state.failures:
                        job.state = "failed"
                        run.failed += 1
                        run.failures[key] = state.failures[key]
                    else:  # pending again, uncharged
                        run.open_jobs += 1
                        self._push(run, job, ready_at=0.0)
                run.attached = False
                run.detached_at = time.monotonic()
                self._runs[run.run_id] = run
                self._journal_open(run)
                if run.open_jobs == 0:
                    # run-done is primed into the stream on re-attach.
                    run.done = True
                restored.append(run.run_id)
            if max_order >= 0:
                self._run_seq = itertools.count(max_order + 1)
            if restored:
                self._ready.notify_all()
        return restored

    def stop(self) -> None:
        """Tell every waiting worker to exit (lease returns ``stop``)."""
        with self._ready:
            self._stopping = True
            self._ready.notify_all()

    # -- introspection -------------------------------------------------
    def has_run(self, run_id: str) -> bool:
        with self._lock:
            return run_id in self._runs

    def stream_epoch(self, run_id: str) -> int:
        """The run's current attach epoch (-1 for an unknown run)."""
        with self._lock:
            run = self._runs.get(run_id)
            return run.attach_seq if run is not None else -1

    def stats(self) -> Dict[str, object]:
        with self._lock:
            runs = {
                run_id: {
                    "open": run.open_jobs, "completed": run.completed,
                    "failed": run.failed, "cancelled": run.cancelled,
                    "done": run.done, "attached": run.attached,
                }
                for run_id, run in sorted(self._runs.items())
            }
            return {"runs": runs, "leases": len(self._leases),
                    "queued": len(self._heap),
                    "journal": self._journal is not None}

    # -- internals (call with the lock held) ---------------------------
    def _journal_open(self, run: _Run) -> None:
        if self._journal is None:
            return
        try:
            run.journal = self._journal.open_run(run.run_id)
        except OSError as error:
            run.journal = None
            print(f"broker: cannot open journal for run {run.run_id!r}: "
                  f"{error}; continuing without one", file=sys.stderr)

    def _journal_append(self, run: _Run, record: Dict[str, object]) -> None:
        if run.journal is None:
            return
        try:
            run.journal.append(record)
        except (OSError, ValueError) as error:
            # Durability degrades, the broker stays up: drop this run's
            # journal rather than failing live traffic on a sick disk.
            run.journal.close()
            run.journal = None
            print(f"broker: journal write failed for run {run.run_id!r}: "
                  f"{error}; continuing without one", file=sys.stderr)

    def _push(self, run: _Run, job: _Job, ready_at: float) -> None:
        heapq.heappush(self._heap, (ready_at, run.order,
                                    job.priority, next(self._seq),
                                    run.run_id, job.key))

    def _pop_ready(self, now: float) -> Optional[tuple]:
        """The first heap entry whose job is still pending and ready."""
        while self._heap:
            ready_at, _, _, _, run_id, key = self._heap[0]
            run = self._runs.get(run_id)
            job = run.jobs.get(key) if run is not None else None
            if job is None or job.state != "pending" or run.cancelled:
                heapq.heappop(self._heap)
                if (job is not None and run.cancelled
                        and job.state == "pending"):
                    # Backstop — cancel() drains proactively, but any
                    # job requeued into a cancelled run is dropped here
                    # with the same accounting so the run still finishes.
                    self._drop_locked(run, job)
                continue
            if ready_at > now:
                return None
            return heapq.heappop(self._heap)
        return None

    def _grant(self, entry: tuple, worker: str, now: float) -> Dict[str, object]:
        _, _, _, _, run_id, key = entry
        run = self._runs[run_id]
        job = run.jobs[key]
        job.state = "leased"
        lease = _Lease(
            lease_id=f"L{next(self._lease_seq)}",
            run_id=run_id, key=key, worker=worker,
            attempt=run.ledger.dispatched(key),
            deadline=now + self.lease_ttl,
        )
        self._leases[lease.lease_id] = lease
        return {
            "type": "job",
            "lease": lease.lease_id,
            "key": job.key,
            "spec": job.spec,
            "seed": job.seed,
            "scenario": job.scenario,
            "attempt": lease.attempt,
            "timeout_s": run.ledger.policy.timeout_s,
            "lease_ttl": self.lease_ttl,
        }

    def _requeue_locked(self, lease: _Lease) -> None:
        """Return a lost lease's job to the queue at the same attempt."""
        self._leases.pop(lease.lease_id, None)
        run = self._runs.get(lease.run_id)
        job = run.jobs.get(lease.key) if run is not None else None
        if job is None or job.state != "leased":
            return
        if run.cancelled:
            self._drop_locked(run, job)
            return
        run.ledger.lost(job.key)
        job.state = "pending"
        self._push(run, job, ready_at=0.0)

    def _expire_locked(self, now: float) -> int:
        expired = [lease for lease in self._leases.values()
                   if lease.deadline < now]
        for lease in expired:
            self._requeue_locked(lease)
        return len(expired)

    def _settle_locked(self, run: _Run, job: _Job, state: str,
                       record: Optional[Dict[str, object]] = None,
                       event: Optional[Dict[str, object]] = None) -> None:
        """The one place a job leaves the open set.

        ``state`` is ``"done"`` or ``"failed"``; ``record`` is journaled
        before ``event`` reaches the client, so a crash between the two
        replays the event instead of losing it.  A cancelled run has no
        listener: its events are dropped, its accounting is not.
        """
        job.state = state
        run.open_jobs -= 1
        if state == "done":
            run.completed += 1
        else:
            run.failed += 1
        if record is not None:
            self._journal_append(run, record)
        if event is not None and not run.cancelled:
            run.events.put(event)
        if run.open_jobs == 0:
            self._finish_run(run)

    def _drop_locked(self, run: _Run, job: _Job) -> None:
        """Drop one job of a cancelled run with full accounting."""
        run.ledger.cancelled(job.key)
        self._settle_locked(run, job, "failed")

    def _cancel_locked(self, run: _Run) -> None:
        if run.cancelled:
            return
        run.cancelled = True
        self._journal_append(run, {"type": "cancel"})
        # Revoke the run's outstanding leases: each holder's next
        # heartbeat is answered ok=false and the worker abandons.
        for lease_id, lease in list(self._leases.items()):
            if lease.run_id != run.run_id:
                continue
            del self._leases[lease_id]
            job = run.jobs.get(lease.key)
            if job is not None and job.state == "leased":
                self._drop_locked(run, job)
        for job in list(run.jobs.values()):
            if job.state == "pending":
                self._drop_locked(run, job)
        if run.open_jobs == 0:
            if run.done:
                self._retire_locked(run)
            else:
                self._finish_run(run)

    def _finish_run(self, run: _Run) -> None:
        if run.done:
            return
        run.done = True
        run.events.put({"type": "run-done", "run": run.run_id,
                        "completed": run.completed, "failed": run.failed})
        if run.cancelled:
            # Nobody is listening to a cancelled run: retire it now.
            self._retire_locked(run)

    def _retire_locked(self, run: _Run) -> None:
        self._runs.pop(run.run_id, None)
        if run.journal is not None:
            run.journal.close()
            run.journal = None
        if self._journal is not None:
            self._journal.discard(self._journal.path_for(run.run_id))


class BrokerServer:
    """Thread-per-connection frame server around a :class:`BrokerQueue`.

    Handles ``hello``/``lease``/``heartbeat``/``complete``/``fail`` from
    workers, ``submit`` (stream events until ``run-done``) from clients,
    and ``ping``/``stats``/``shutdown`` from anyone.  A submit stream
    emits a ``tick`` keep-alive every few seconds so a dead client is
    detected and its run cancelled instead of leaking; a ``submit`` for a
    run id the queue already holds (after a broker restart + journal
    replay, or a client reconnect) re-attaches instead of erroring.
    Every ``heartbeat`` is answered with a ``heartbeat-ack``.
    """

    #: Seconds between keep-alive ticks on an idle submit stream.
    TICK_S = 5.0

    def __init__(self, listen: str = "127.0.0.1:0",
                 lease_ttl: float = DEFAULT_LEASE_TTL_S,
                 queue: Optional[BrokerQueue] = None,
                 journal: Optional[JournalDir] = None,
                 orphan_ttl: Optional[float] = None) -> None:
        self.queue = queue or BrokerQueue(lease_ttl, journal=journal,
                                          orphan_ttl=orphan_ttl)
        self._listener = create_listener(listen)
        self.address = listener_address(self._listener)
        self._threads: List[threading.Thread] = []
        self._conn_seq = itertools.count(1)
        self._shutdown = threading.Event()
        self._started = False
        #: Run ids restored from the journal by the last start().
        self.recovered: List[str] = []

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Replay the journal, then start the accept loop and reaper."""
        if self._started:
            return
        self._started = True
        self.recovered = self.queue.recover()
        if self.recovered:
            print(f"repro-broker: recovered {len(self.recovered)} run(s) "
                  f"from the journal", flush=True)
        for target, name in ((self._accept_loop, "broker-accept"),
                             (self._reaper_loop, "broker-reaper")):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)

    def stop(self) -> None:
        self._shutdown.set()
        self.queue.stop()
        try:
            self._listener.close()
        except OSError:
            pass

    def serve_forever(self) -> None:
        self.start()
        self._shutdown.wait()

    # -- loops ---------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._shutdown.is_set():
            try:
                conn = accept(self._listener)
            except OSError:
                return  # listener closed
            thread = threading.Thread(
                target=self._handle, args=(conn,),
                name=f"broker-conn-{next(self._conn_seq)}", daemon=True)
            thread.start()

    def _reaper_loop(self) -> None:
        interval = max(0.5, self.queue.lease_ttl / 4.0)
        while not self._shutdown.wait(interval):
            self.queue.expire()
            self.queue.sweep_orphans()

    # -- per-connection handling ---------------------------------------
    def _handle(self, conn) -> None:
        worker_id: Optional[str] = None
        try:
            while True:
                message = recv_frame(conn)
                if message is None:
                    return
                kind = str(message.get("type", ""))
                if kind == "hello":
                    name = str(message.get("worker", "worker"))
                    worker_id = f"{name}#{threading.get_ident()}"
                elif kind == "lease":
                    wait_s = float(message.get("wait_s", 0.0))  # type: ignore[arg-type]
                    send_frame(conn, self.queue.lease(
                        worker_id or "anonymous", wait_s))
                elif kind == "heartbeat":
                    lease_id = str(message.get("lease", ""))
                    send_frame(conn, {"type": "heartbeat-ack",
                                      "lease": lease_id,
                                      "ok": self.queue.heartbeat(lease_id)})
                elif kind == "complete":
                    self.queue.complete(
                        str(message.get("lease", "")),
                        dict(message.get("metrics") or {}))  # type: ignore[arg-type]
                elif kind == "fail":
                    self.queue.fail(str(message.get("lease", "")),
                                    str(message.get("kind", "exception")),
                                    str(message.get("error", "")))
                elif kind == "submit":
                    self._handle_submit(conn, message)
                elif kind == "ping":
                    send_frame(conn, {"type": "pong"})
                elif kind == "stats":
                    send_frame(conn, {"type": "stats", **self.queue.stats()})
                elif kind == "shutdown":
                    send_frame(conn, {"type": "bye"})
                    self.stop()
                    return
                else:
                    send_frame(conn, {"type": "error",
                                      "error": f"unknown message type {kind!r}"})
        except (FrameError, OSError, ValueError):
            pass  # a dead or misbehaving peer only loses its own session
        finally:
            if worker_id is not None:
                self.queue.release_worker(worker_id)
            try:
                conn.close()
            except OSError:
                pass

    def _handle_submit(self, conn, message: Dict[str, object]) -> None:
        run_id = str(message.get("run", ""))
        if not run_id:
            send_frame(conn, {"type": "error", "error": "submit needs a run id"})
            return
        jobs = list(message.get("jobs") or [])  # type: ignore[arg-type]
        resumed = False
        try:
            policy = policy_from_dict(message.get("policy"))  # type: ignore[arg-type]
            if self.queue.has_run(run_id):
                events = self.queue.attach(run_id, jobs)
                resumed = True
            else:
                try:
                    events = self.queue.submit(run_id, jobs, policy=policy)
                except ValueError:
                    # Raced a concurrent submit of the same id; attach
                    # validates the job set or rejects for us.
                    events = self.queue.attach(run_id, jobs)
                    resumed = True
        except (ValueError, KeyError, TypeError) as error:
            send_frame(conn, {"type": "error", "error": str(error)})
            return
        epoch = self.queue.stream_epoch(run_id)
        send_frame(conn, {"type": "submitted", "run": run_id,
                          "jobs": len(jobs), "resumed": resumed})
        self._stream_events(conn, run_id, events, epoch)

    def _stream_events(self, conn, run_id: str,
                       events: "Queue[Dict[str, object]]",
                       epoch: int = 0) -> None:
        """Forward run events until ``run-done``; cancel on a dead client.

        After delivering ``run-done`` the run is retired (its journal is
        deleted); on a client error the cancel carries this stream's
        epoch, so a newer re-attached stream is never cancelled by a
        stale one.
        """
        try:
            while True:
                try:
                    event = events.get(timeout=self.TICK_S)
                except Empty:  # idle: prove the client is alive
                    send_frame(conn, {"type": "tick", "run": run_id})
                    continue
                send_frame(conn, event)
                if event.get("type") == "run-done":
                    self.queue.retire(run_id)
                    return
        except (FrameError, OSError):
            self.queue.cancel(run_id, epoch=epoch)
            raise
        finally:
            self.queue.detach(run_id, epoch)


_EPILOG = """\
journal & recovery:
  Unless --no-journal is given, every transition a restart needs
  (submit, attempt charge, complete, fail, cancel) is fsynced to a
  per-run journal under the --journal directory (default: <runs>/journal
  next to the RunStore, i.e. $REPRO_RUNS_DIR or ./runs) as one of the
  unit cache's checksummed records: a torn or damaged record costs
  itself and no other, and a journal whose submit record is lost is
  reported and deleted.  On start the journal is replayed: settled jobs
  keep their recorded metrics/failures, jobs that were leased at the
  crash come back pending at the same attempt number (lost leases are
  never charged), and a client that reconnects and re-submits the same
  run id re-attaches and receives every already-settled event before the
  live ones — so a kill -9 mid-run resumes to output byte-identical to a
  serial run.  A run's journal file is deleted when the run retires
  (its run-done was delivered, or it was cancelled and drained).

heartbeat-ack:
  Every worker heartbeat is answered with heartbeat-ack {ok}.  ok=false
  means the lease was reaped (expired or its run cancelled): the worker
  abandons the orphaned attempt instead of computing a result the
  broker would silently drop.
"""


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-broker",
        description="Job broker for distributed scenario execution "
                    "(see repro.distributed).",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--listen", default="127.0.0.1:0", metavar="ADDR",
                        help="HOST:PORT or unix:/path (default: "
                             "127.0.0.1 on an ephemeral port)")
    parser.add_argument("--lease-ttl", type=float,
                        default=DEFAULT_LEASE_TTL_S, metavar="S",
                        help="seconds a lease survives without a heartbeat "
                             f"(default: {DEFAULT_LEASE_TTL_S:g})")
    parser.add_argument("--journal", default=None, metavar="PATH",
                        help="write-ahead journal directory (default: "
                             "<runs>/journal; see epilog)")
    parser.add_argument("--no-journal", action="store_true",
                        help="run without a journal: a broker crash "
                             "loses every queued run")
    args = parser.parse_args(argv)
    try:
        parse_address(args.listen)
    except ValueError as error:
        print(f"repro-broker: --listen: {error}", file=sys.stderr)
        return 2
    journal = None
    if not args.no_journal:
        from repro.analysis.runstore import default_runs_dir

        root = args.journal or (default_runs_dir() / "journal")
        journal = JournalDir(root)
    server = BrokerServer(listen=args.listen, lease_ttl=args.lease_ttl,
                          journal=journal)
    print(f"repro-broker listening on {server.address}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
