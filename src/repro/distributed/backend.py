""":class:`DistributedBackend` — run an ExecutionPlan through a broker.

The backend is a straight client of the broker protocol: it submits the
plan's pending unit jobs plus the run's
:class:`~repro.scenarios.execution.JobPolicy`, then consumes the event
stream, merging each ``job-done`` by content-addressed job key.  Metrics
ride the wire as JSON, whose float round-trip is exact (shortest-repr),
so the assembled output is byte-identical to :class:`SerialBackend` at
any worker count and any completion order — the same merge-by-key
argument the process-pool backend makes, stretched across hosts.

Failure semantics are the in-process backends' (the broker drives the same
attempt ledger): retries and backoff happen broker-side, a job
that exhausts its budget arrives as a ``job-failed`` event carrying the
:class:`~repro.scenarios.execution.JobFailure`, and ``keep_going``
selects between collecting it into the caller's failure manifest and
aborting with :class:`~repro.scenarios.execution.JobExecutionError`
(closing the connection cancels the run broker-side).  A ``spec``
failure always aborts, re-raised as the
:class:`~repro.scenarios.adapters.SpecError` it was.

With ``reattach`` enabled (the default), a broker connection lost
mid-run — most importantly a broker that was killed and restarted
against its journal — is ridden out: the backend reconnects with
backoff and re-submits the *same* run id, which re-attaches to the
journaled run; every already-settled event is replayed (duplicates are
dropped by key) and the stream continues.  Against a journal-less
broker the re-submit simply re-enqueues the outstanding jobs, which is
equally byte-identical because unit jobs are pure functions of
``(spec, seed)``.
"""

from __future__ import annotations

import itertools
import os
import time
from typing import Callable, Dict, Mapping, Optional, Set

from repro.distributed.broker import policy_to_dict
from repro.distributed.protocol import (
    FrameError,
    connect,
    recv_frame,
    send_frame,
)
from repro.scenarios.adapters import SpecError
from repro.scenarios.execution import (
    ExecutionBackend,
    ExecutionPlan,
    JobExecutionError,
    JobFailure,
    JobPolicy,
    ProgressCallback,
    UnitJob,
)

_RUN_SEQ = itertools.count(1)

#: Seconds between reconnect attempts while re-attaching.
_REATTACH_BACKOFF_S = 0.5


class DistributedBackend(ExecutionBackend):
    """Execute unit jobs on workers attached to a ``repro-broker``.

    ``broker`` is the broker address (``HOST:PORT`` or ``unix:/path``).
    ``run_id`` overrides the auto-derived run identifier (useful for
    tests); it only names the run broker-side and never affects results.
    ``reattach`` rides out a lost broker connection by reconnecting and
    re-submitting the same run id for up to ``reattach_timeout`` seconds
    per outage; ``False`` fails fast on the first stream loss.
    """

    def __init__(self, broker: str, run_id: Optional[str] = None,
                 connect_timeout: float = 10.0,
                 reattach: bool = True,
                 reattach_timeout: float = 60.0) -> None:
        self.broker = broker
        self.run_id = run_id
        self.connect_timeout = connect_timeout
        self.reattach = reattach
        self.reattach_timeout = reattach_timeout

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
        if not pending:
            return {}
        policy = policy or JobPolicy()
        jobs_by_key = {job.key: job for job in pending}
        run_id = self.run_id or (
            f"{plan.name or 'plan'}-{os.getpid()}-{next(_RUN_SEQ)}")
        total = len(plan.jobs)
        base_done = total - len(pending)
        fresh: Dict[str, Dict[str, float]] = {}
        failed_keys: Set[str] = set()
        wire_jobs = [self._wire_job(job) for job in pending]
        submitted_once = False
        deadline: Optional[float] = None

        while True:
            try:
                conn = connect(self.broker, timeout=self.connect_timeout)
            except OSError as error:
                if not self._may_retry(submitted_once, deadline):
                    raise
                deadline = deadline or (
                    time.monotonic() + self.reattach_timeout)
                time.sleep(_REATTACH_BACKOFF_S)
                continue
            try:
                send_frame(conn, {
                    "type": "submit",
                    "run": run_id,
                    "policy": policy_to_dict(policy),
                    "jobs": wire_jobs,
                })
                reply = recv_frame(conn)
                if reply is None or reply.get("type") != "submitted":
                    raise ConnectionError(
                        f"broker {self.broker} rejected run {run_id!r}: "
                        f"{(reply or {}).get('error', 'connection closed')}")
                submitted_once = True
                deadline = None  # each outage gets a fresh retry window
                while True:
                    event = recv_frame(conn)
                    if event is None:
                        raise ConnectionError(
                            f"broker {self.broker} closed the stream "
                            f"mid-run ({base_done + len(fresh) + len(failed_keys)}"
                            f"/{total} jobs done)")
                    kind = event.get("type")
                    if kind == "tick":
                        continue
                    if kind == "job-done":
                        key = str(event["key"])
                        if key in fresh:
                            continue  # re-attach replay: already merged
                        metrics = dict(event.get("metrics") or {})  # type: ignore[arg-type]
                        fresh[key] = metrics
                        if on_result is not None:
                            on_result(key, metrics)
                        if progress is not None:
                            progress(base_done + len(fresh) + len(failed_keys),
                                     total, jobs_by_key.get(key))
                        continue
                    if kind == "job-failed":
                        failure = JobFailure.from_dict(
                            event.get("failure") or {})  # type: ignore[arg-type]
                        if failure.key in failed_keys:
                            continue  # re-attach replay: already counted
                        if failure.kind == "spec":
                            raise SpecError(failure.error)
                        failed_keys.add(failure.key)
                        if failures is not None:
                            failures[failure.key] = failure
                        if not policy.keep_going:
                            # Closing the connection cancels the run
                            # broker-side.
                            raise JobExecutionError(failure)
                        if progress is not None:
                            progress(base_done + len(fresh) + len(failed_keys),
                                     total, jobs_by_key.get(failure.key))
                        continue
                    if kind == "run-done":
                        return fresh
            except JobExecutionError:
                raise
            except (ConnectionError, FrameError, OSError):
                if not self._may_retry(submitted_once, deadline):
                    raise
                deadline = deadline or (
                    time.monotonic() + self.reattach_timeout)
                time.sleep(_REATTACH_BACKOFF_S)
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    def _may_retry(self, submitted_once: bool,
                   deadline: Optional[float]) -> bool:
        """Whether a lost connection should be ridden out with a re-attach."""
        if not self.reattach or not submitted_once:
            return False  # fail fast: disabled, or never reached the broker
        return deadline is None or time.monotonic() < deadline

    @staticmethod
    def _wire_job(job: UnitJob) -> Dict[str, object]:
        return {"key": job.key, "spec": job.spec.to_dict(),
                "seed": job.seed, "scenario": job.spec.name}
