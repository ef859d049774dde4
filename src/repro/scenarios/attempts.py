"""The attempt state machine every backend drives.

What a failed attempt of a unit job costs, when the next one may start and
when to give up is decided in one place, :class:`AttemptLedger`; the
serial and pool backends and the broker's queue only report events to it
and act on its verdicts.  It is pure bookkeeping — no thread, no sleep,
and time only through the clock it is handed — so a test can drive it
through any interleaving with a fake one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Union


@dataclass(frozen=True)
class JobPolicy:
    """How unit jobs are supervised (the same on every backend).

    ``max_retries`` extra attempts are allowed per job (so a job runs at
    most ``max_retries + 1`` times).  Between attempts the backend waits
    an exponential backoff ``backoff_base_s * backoff_factor**(attempt-1)``
    capped at ``backoff_max_s``, stretched by up to ``backoff_jitter``
    fractional jitter that is derived *deterministically* from the job key
    and attempt number — two runs of the same plan back off identically.
    ``timeout_s`` bounds each attempt's wall clock (a job past it counts
    as failed and consumes retry budget).  ``keep_going`` selects graceful
    degradation over fail-fast once retries are exhausted: the job becomes
    a :class:`JobFailure` in the plan's failure manifest instead of
    aborting the run.
    """

    max_retries: int = 0
    timeout_s: Optional[float] = None
    keep_going: bool = False
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 5.0
    backoff_jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1.0")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0 \
                or self.backoff_jitter < 0:
            raise ValueError("backoff parameters cannot be negative")

    @property
    def attempts(self) -> int:
        """Total attempts allowed per job."""
        return self.max_retries + 1

    def backoff_delay(self, key: str, attempt: int) -> float:
        """Seconds to wait after a failed ``attempt`` (1-based) of ``key``.

        Deterministic: the jitter fraction comes from a sha256 of
        ``(key, attempt)``, not from wall clock or a shared RNG, so the
        schedule is reproducible across processes and runs.
        """
        base = min(self.backoff_max_s,
                   self.backoff_base_s * self.backoff_factor ** (attempt - 1))
        if base <= 0.0 or self.backoff_jitter <= 0.0:
            return max(base, 0.0)
        digest = hashlib.sha256(f"{key}:{attempt}".encode("utf-8")).digest()
        unit = int.from_bytes(digest[:8], "big") / 2.0 ** 64
        return base * (1.0 + self.backoff_jitter * unit)


@dataclass
class JobFailure:
    """One unit job that exhausted its retry budget.

    ``kind`` is ``exception`` (the adapter raised), ``spec`` (the adapter
    raised a ``SpecError``: a spec value no attempt can build a model
    from), ``timeout`` (an attempt exceeded the policy's wall-clock
    budget) or ``worker-crash`` (the pool worker running it died).
    ``attempts`` counts every charged attempt and ``elapsed_s`` the wall
    clock from the job's first dispatch to the give-up, across all of
    them.
    """

    key: str
    scenario: str
    seed: int
    kind: str
    error: str
    attempts: int
    elapsed_s: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "key": self.key,
            "scenario": self.scenario,
            "seed": self.seed,
            "kind": self.kind,
            "error": self.error,
            "attempts": self.attempts,
            "elapsed_s": round(self.elapsed_s, 3),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "JobFailure":
        return cls(
            key=str(data["key"]),
            scenario=str(data.get("scenario", "")),
            seed=int(data.get("seed", 0)),
            kind=str(data.get("kind", "exception")),
            error=str(data.get("error", "")),
            attempts=int(data.get("attempts", 1)),
            elapsed_s=float(data.get("elapsed_s", 0.0)),
        )


class AttemptLedger:
    """Per-key attempt accounting for the jobs of one run.

    A key is *open* from its first ``dispatched`` until ``succeeded``, a
    give-up verdict from ``failed``, or ``cancelled``; settling one that is
    not open raises :class:`KeyError`.  Only ``failed`` charges the retry
    budget.  ``charges`` seeds the failed-attempt counts of a run restored
    from a journal (first-dispatch times do not survive a restart).
    """

    def __init__(self, policy: JobPolicy, clock: Callable[[], float],
                 charges: Optional[Mapping[str, int]] = None) -> None:
        self.policy = policy
        self._clock = clock
        self.failed_attempts: Dict[str, int] = dict(charges or {})
        self.first_dispatch: Dict[str, float] = {}

    def dispatched(self, key: str) -> int:
        """An attempt of ``key`` starts; returns its 1-based number."""
        if key not in self.first_dispatch:
            self.first_dispatch[key] = self._clock()
        return self.failed_attempts.get(key, 0) + 1

    def succeeded(self, key: str) -> None:
        """The attempt in flight returned metrics: ``key`` is settled."""
        del self.first_dispatch[key]
        self.failed_attempts.pop(key, None)

    def failed(self, key: str, kind: str, error: str, scenario: str = "",
               seed: int = 0) -> Union[float, JobFailure]:
        """The attempt in flight failed (``kind`` as in :class:`JobFailure`).

        Charges one attempt.  Below the budget the verdict is the clock
        time the retry may start at; at the budget, or at once for a
        ``spec`` failure (a retry would fail the same way), it is the
        :class:`JobFailure` that settles the key.
        """
        started = self.first_dispatch[key]
        attempts = self.failed_attempts.get(key, 0) + 1
        now = self._clock()
        if attempts < self.policy.attempts and kind != "spec":
            self.failed_attempts[key] = attempts
            return now + self.policy.backoff_delay(key, attempts)
        self.cancelled(key)
        return JobFailure(key=key, scenario=scenario, seed=seed, kind=kind,
                          error=error, attempts=attempts,
                          elapsed_s=now - started)

    def lost(self, key: str) -> None:
        """The attempt vanished with its worker or lease through no fault
        of the job: nothing is charged, and the next ``dispatched`` hands
        out the same attempt number."""
        if key not in self.first_dispatch:
            raise KeyError(key)

    def cancelled(self, key: str) -> None:
        """Forget ``key``, dispatched or not: its run no longer wants it."""
        self.first_dispatch.pop(key, None)
        self.failed_attempts.pop(key, None)
