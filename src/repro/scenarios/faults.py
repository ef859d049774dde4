"""Deterministic fault injection for exercising the supervision layer.

Fault tolerance is only trustworthy if it can be *proved*, and proving it
needs failures that happen on demand, at a chosen job and attempt, the
same way every run.  This module is the part of that harness the
executing processes run:

- :class:`FaultSpec` — one scripted fault: a substring match on unit-job
  keys, the attempt numbers it fires on, and an action (``raise``,
  ``hang``, or ``kill`` the worker process).
- :class:`FaultPlan` — an ordered list of FaultSpecs, serialisable to the
  ``REPRO_FAULT_PLAN`` environment variable so pool workers (fork *or*
  spawn) and ``repro-worker`` processes inherit the same script as the
  parent.

The test-side fixtures that install a plan around one backend call and
tear a unit-cache write live with the tests (``tests/fault_fixtures.py``);
``make chaos`` sets ``REPRO_FAULT_PLAN`` directly.

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
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Tuple

from repro.scenarios.execution import FAULT_PLAN_ENV

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
