"""Deterministic discrete-event simulation engine.

One programming model: **callback scheduling**.  ``sim.schedule(delay, fn,
*args)`` runs ``fn(*args)`` at ``sim.now + delay`` and returns a handle whose
``cancel()`` withdraws it; protocol timers, message deliveries and whole
protocol exchanges (a DHT lookup, a PBFT round) are all chains of such
callbacks.  ``sim.run(until=None)`` is the one loop that executes them.

Invariants
----------
Every change must preserve these; the determinism tests pin them down:

* **Total order.** Entries execute in strict ``(time, seq)`` order, where
  ``seq`` is the global scheduling sequence number.  Events scheduled at the
  same instant therefore fire in scheduling order, which keeps runs fully
  deterministic for a given seed.
* **Two queues, one order.** Entries with a positive delay live in a binary
  heap; entries scheduled with ``delay == 0`` go to a FIFO *now-bucket*
  (``collections.deque``), making zero-delay cascades O(1) instead of
  O(log n).  The run loop merges both sources by comparing ``(time, seq)``,
  so the observable order is identical to a single heap.  All bucket entries
  carry ``time == now``: the clock never advances while the bucket is
  non-empty.
* **One loop, one horizon compare.** ``run()`` and ``run(until=H)`` are the
  same loop, so the rate the benchmarks measure is the rate the models get
  (every model passes ``until``).  The horizon is compared in the one branch
  where the clock can advance — a heap pop with the bucket empty; whatever is
  chosen while the bucket holds entries is at ``now``, already inside the
  horizon.  The clock only moves forward: a horizon in the past runs nothing
  and leaves ``now`` alone.
* **C-speed comparisons.** Heap entries are ``list`` subclasses laid out as
  ``[time, seq, callback, args, sim]`` so ``heapq`` compares them with the
  C list comparison (time first, then the unique ``seq`` — the callback is
  never compared).
* **One broadcast, one call.** ``schedule_each(callback, pairs)`` queues
  ``callback(arg)`` for every ``(delay, arg)`` pair in one call.  It is a
  loop of :meth:`Simulator.schedule`, not a second kind of entry: the same
  ``seq`` numbers in pair order, the same two queues, the same ``pending``
  count and the same ``SimulationError`` for a negative delay.  It hands
  back no handles, so its entries cannot be cancelled one by one.
* **O(1) accounting.** ``Simulator.pending`` is a live counter maintained by
  ``schedule``/``cancel``/the run loop — never a queue scan.  Cancellation
  sets the entry's callback slot to ``None``; the loop skips such entries
  when they surface.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, Deque, Iterable, List, Optional, Tuple

__all__ = ["SimulationError", "Simulator"]


class SimulationError(RuntimeError):
    """Raised when the simulation is driven into an invalid state."""


class _ScheduledCall(list):
    """Internal queue entry: ``[time, seq, callback, args, sim]``.

    Subclassing ``list`` keeps heap comparisons in C: entries order by
    ``time`` then by the unique ``seq``, so the callback slot is never
    reached by a comparison.  Cancellation clears the callback slot and
    immediately decrements the simulator's live-entry counter, making both
    :meth:`cancel` and :attr:`Simulator.pending` O(1).
    """

    __slots__ = ()

    @property
    def time(self) -> float:
        return self[0]

    @property
    def seq(self) -> int:
        return self[1]

    @property
    def callback(self) -> Optional[Callable[..., Any]]:
        return self[2]

    @property
    def args(self) -> tuple:
        return self[3]

    @property
    def cancelled(self) -> bool:
        return self[2] is None

    def cancel(self) -> None:
        """Prevent the callback from running when its time arrives (O(1))."""
        if self[2] is not None:
            self[2] = None
            self[3] = ()
            sim = self[4]
            if sim is not None:
                sim._live -= 1
                self[4] = None

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "cancelled" if self[2] is None else "pending"
        return f"_ScheduledCall(t={self[0]!r}, seq={self[1]!r}, {state})"


class Simulator:
    """Discrete-event simulator with a virtual clock.

    Entries are kept in a binary heap plus a FIFO now-bucket for zero-delay
    entries; see the module docstring for the invariants.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> handle = sim.schedule(5.0, fired.append, "hello")
    >>> sim.run()
    1
    >>> sim.now, fired
    (5.0, ['hello'])
    """

    __slots__ = ("now", "_queue", "_bucket", "_seq", "_live", "_processed", "_running")

    def __init__(self, start_time: float = 0.0) -> None:
        self.now = float(start_time)
        self._queue: List[_ScheduledCall] = []
        self._bucket: Deque[_ScheduledCall] = deque()
        self._seq = 0
        self._live = 0
        self._processed = 0
        self._running = False

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> _ScheduledCall:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay > 0:
            self._seq = seq = self._seq + 1
            entry = _ScheduledCall((self.now + delay, seq, callback, args, self))
            heappush(self._queue, entry)
        elif delay == 0:
            self._seq = seq = self._seq + 1
            entry = _ScheduledCall((self.now, seq, callback, args, self))
            self._bucket.append(entry)
        else:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._live += 1
        return entry

    def schedule_each(
        self, callback: Callable[[Any], Any], pairs: Iterable[Tuple[float, Any]]
    ) -> None:
        """Schedule ``callback(arg)`` ``delay`` seconds from now for every
        ``(delay, arg)`` pair, in order.

        The same as calling :meth:`schedule` once per pair — same ``seq``
        order, same ``pending`` count — without a call and a handle per
        entry.  A negative delay raises :class:`SimulationError`; the pairs
        before it stay scheduled, as they would in the loop.
        """
        now = self.now
        queue = self._queue
        bucket = self._bucket
        seq = self._seq
        try:
            for delay, arg in pairs:
                if delay > 0:
                    seq += 1
                    heappush(queue, _ScheduledCall((now + delay, seq, callback, (arg,), self)))
                elif delay == 0:
                    seq += 1
                    bucket.append(_ScheduledCall((now, seq, callback, (arg,), self)))
                else:
                    raise SimulationError(f"cannot schedule in the past (delay={delay})")
        finally:
            self._live += seq - self._seq
            self._seq = seq

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> int:
        """Run events until the queue empties or the next one lies beyond
        ``until``; the clock then advances to ``until``.  Returns the number
        of events run.
        """
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        horizon = inf if until is None else until
        if horizon < self.now:
            # Everything queued is at or after ``now``: nothing may run, and
            # the clock never goes backwards.
            return 0
        self._running = True
        processed = 0
        queue = self._queue
        bucket = self._bucket
        pop = heappop
        popleft = bucket.popleft
        try:
            while True:
                if bucket:
                    if queue:
                        head = queue[0]
                        b = bucket[0]
                        if head[0] > b[0] or (head[0] == b[0] and head[1] > b[1]):
                            entry = popleft()
                        else:
                            entry = pop(queue)
                    else:
                        entry = popleft()
                elif queue:
                    # The only branch in which the clock can advance.
                    if queue[0][0] > horizon:
                        break
                    entry = pop(queue)
                else:
                    break
                callback = entry[2]
                if callback is None:
                    continue
                self.now = entry[0]
                # Decrement before invoking: a raising callback must not
                # leave its (already popped) entry counted as pending.
                self._live -= 1
                callback(*entry[3])
                processed += 1
            if until is not None:
                self.now = until
        finally:
            self._processed += processed
            self._running = False
        return processed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1))."""
        return self._live

    @property
    def processed(self) -> int:
        """Number of events executed since construction."""
        return self._processed
