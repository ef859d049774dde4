"""Test-side fault fixtures around :mod:`repro.scenarios.faults`.

The executing processes only read a plan (``REPRO_FAULT_PLAN``, consulted
by :func:`repro.scenarios.faults.maybe_inject`); installing one around a
backend call, and tearing a unit-cache write the way a killed writer
does, are things only the tests do, so they live here.
"""

import os
from contextlib import contextmanager
from typing import Dict, Iterator, List

from repro.analysis.runstore import RunStore
from repro.scenarios.execution import FAULT_PLAN_ENV, ExecutionBackend
from repro.scenarios.faults import FaultPlan, InjectedFault


@contextmanager
def installed(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Set ``REPRO_FAULT_PLAN`` to ``plan`` for the duration of the block.

    Pool workers spawned inside the block inherit the variable, so the
    same script applies on every backend.
    """
    previous = os.environ.get(FAULT_PLAN_ENV)
    os.environ[FAULT_PLAN_ENV] = plan.to_json()
    try:
        yield plan
    finally:
        if previous is None:
            os.environ.pop(FAULT_PLAN_ENV, None)
        else:
            os.environ[FAULT_PLAN_ENV] = previous


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
        with installed(self.plan):
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
