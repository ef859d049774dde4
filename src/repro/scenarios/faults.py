"""Deterministic fault injection for exercising the supervision layer.

Fault tolerance is only trustworthy if it can be *proved*, and proving it
needs failures that happen on demand, at a chosen job and attempt, the
same way every run.  This module provides that harness:

- :class:`FaultSpec` — one scripted fault: a substring match on unit-job
  keys, the attempt numbers it fires on, and an action (``raise``,
  ``hang``, or ``kill`` the worker process).
- :class:`FaultPlan` — an ordered list of FaultSpecs, serialisable to the
  ``REPRO_FAULT_PLAN`` environment variable so pool workers (fork *or*
  spawn) inherit the same script as the parent.
- :class:`FaultInjectingBackend` — wraps any :class:`ExecutionBackend`
  and installs a plan for the duration of one ``execute`` call.
- :class:`TornWriteStore` — a :class:`~repro.analysis.runstore.RunStore`
  whose unit-cache writes are killed mid-write for matching keys, leaving
  the torn tail a dead writer leaves on its segment.

Injection is keyed on ``(job key, attempt)``, both of which are fully
deterministic, so a scripted scenario like "kill the worker running seed
3's unit on its first attempt" replays identically on every run and on
any backend.  :func:`repro.scenarios.execution.execute_unit` consults the
plan only when ``REPRO_FAULT_PLAN`` is set — one ``os.environ`` lookup —
so production runs pay nothing.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.runstore import RunStore
from repro.scenarios.execution import FAULT_PLAN_ENV, ExecutionBackend

#: Set (to any non-empty value) by processes that serve leased unit jobs
#: (``repro-worker``), so a scripted ``kill`` fault hard-exits them the
#: same way it does pool workers.  Pool workers do not need it — they are
#: recognised by having a multiprocessing parent.
WORKER_PROCESS_ENV = "REPRO_WORKER_PROCESS"


class InjectedFault(RuntimeError):
    """The scripted failure raised (or left behind) by a fault plan."""


@dataclass(frozen=True)
class FaultSpec:
    """One scripted fault.

    ``match`` is a substring of the unit-job keys to hit (``""`` matches
    every job).  ``attempts`` lists the attempt numbers (1-based) the
    fault fires on; empty means *every* attempt — a permanent fault that
    survives any retry budget.  ``action`` is one of:

    - ``"raise"`` — raise :class:`InjectedFault` (an adapter bug).
    - ``"hang"`` — sleep ``seconds`` then return normally; under a
      ``timeout_s`` budget shorter than that, the job looks hung.
    - ``"kill"`` — hard-exit the worker process (``os._exit``), the moral
      equivalent of the OOM killer.  A *worker process* is either a pool
      worker (it has a multiprocessing parent) or a distributed worker
      (``REPRO_WORKER_PROCESS`` is set, see :data:`WORKER_PROCESS_ENV`);
      anywhere else it degrades to ``raise`` so serial runs stay
      debuggable.
    """

    match: str
    action: str = "raise"
    attempts: Tuple[int, ...] = ()
    seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.action not in ("raise", "hang", "kill"):
            raise ValueError(
                f"unknown fault action {self.action!r}; "
                f"use 'raise', 'hang', or 'kill'")
        object.__setattr__(self, "attempts",
                           tuple(int(n) for n in self.attempts))

    def applies(self, key: str, attempt: int) -> bool:
        if self.match not in key:
            return False
        return not self.attempts or attempt in self.attempts

    def trigger(self, key: str, attempt: int) -> None:
        if self.action == "hang":
            time.sleep(self.seconds)
            return
        if self.action == "kill":
            import multiprocessing

            if (multiprocessing.parent_process() is not None
                    or os.environ.get(WORKER_PROCESS_ENV)):
                os._exit(17)
        raise InjectedFault(
            f"injected fault on unit job {key} (attempt {attempt})")

    def to_dict(self) -> Dict[str, object]:
        return {"match": self.match, "action": self.action,
                "attempts": list(self.attempts), "seconds": self.seconds}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultSpec":
        return cls(
            match=str(data.get("match", "")),
            action=str(data.get("action", "raise")),
            attempts=tuple(data.get("attempts", ()) or ()),
            seconds=float(data.get("seconds", 30.0)),
        )


class FaultPlan:
    """An ordered script of :class:`FaultSpec`s; first match wins."""

    def __init__(self, faults: Iterable[FaultSpec] = ()) -> None:
        self.faults: List[FaultSpec] = list(faults)

    def find(self, key: str, attempt: int) -> Optional[FaultSpec]:
        for fault in self.faults:
            if fault.applies(key, attempt):
                return fault
        return None

    def to_json(self) -> str:
        return json.dumps(
            {"faults": [fault.to_dict() for fault in self.faults]},
            sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "FaultPlan":
        data = json.loads(payload)
        return cls(FaultSpec.from_dict(entry)
                   for entry in data.get("faults", []))

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        payload = os.environ.get(FAULT_PLAN_ENV)
        return _parse_plan(payload) if payload else None

    @contextmanager
    def installed(self):
        """Set ``REPRO_FAULT_PLAN`` for the duration of the block.

        Pool workers spawned inside the block inherit the variable, so
        the same script applies on every backend.
        """
        previous = os.environ.get(FAULT_PLAN_ENV)
        os.environ[FAULT_PLAN_ENV] = self.to_json()
        try:
            yield self
        finally:
            if previous is None:
                os.environ.pop(FAULT_PLAN_ENV, None)
            else:
                os.environ[FAULT_PLAN_ENV] = previous


@lru_cache(maxsize=8)
def _parse_plan(payload: str) -> FaultPlan:
    """Parse (and memoise) a serialised plan; workers hit this per job."""
    return FaultPlan.from_json(payload)


def maybe_inject(key: str, attempt: int) -> None:
    """Fire the first scripted fault matching ``(key, attempt)``, if any.

    Called from :func:`~repro.scenarios.execution.execute_unit` whenever
    ``REPRO_FAULT_PLAN`` is set; a no-op when the plan matches nothing.
    """
    payload = os.environ.get(FAULT_PLAN_ENV)
    if not payload:
        return
    fault = _parse_plan(payload).find(key, attempt)
    if fault is not None:
        fault.trigger(key, attempt)


class FaultInjectingBackend(ExecutionBackend):
    """Wrap a backend so a :class:`FaultPlan` applies to its jobs.

    The plan is installed in the environment around the inner backend's
    ``execute`` call, so both in-process (serial) and worker-process
    (pool) unit executions see the same script.
    """

    def __init__(self, inner: ExecutionBackend, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan

    def execute(self, plan, completed=None, progress=None, on_result=None,
                policy=None, failures=None):
        with self.plan.installed():
            return self.inner.execute(
                plan, completed=completed, progress=progress,
                on_result=on_result, policy=policy, failures=failures)


class TornWriteStore(RunStore):
    """A RunStore whose unit-cache writes die mid-write for chosen keys.

    For a matching key, ``put_unit`` appends a *torn* record to its segment
    (a line cut off mid-object, no newline — what a ``kill -9`` during the
    write leaves on disk), raises :class:`InjectedFault`, and abandons the
    segment the way the dead process would have: the retry lands in a
    fresh one.  Each key is torn at most once, so retries then land; the
    ``torn`` list records what was hit.
    """

    def __init__(self, root, match: str = "") -> None:
        super().__init__(root)
        self.match = match
        self.torn: List[str] = []

    def put_unit(self, key: str, metrics: Dict[str, float]) -> None:
        if self.match in key and key not in self.torn:
            self.torn.append(key)
            super().put_unit(key, metrics)
            segment, self._segment = self._segment, None
            segment.truncate(segment.tell() - 8)
            raise InjectedFault(
                f"injected torn write for unit {key} (tail of {segment.name})")
        super().put_unit(key, metrics)
