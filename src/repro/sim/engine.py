"""Deterministic discrete-event simulation engine.

The engine provides two complementary programming models:

* **Callback scheduling** — ``sim.schedule(delay, fn, *args)`` runs ``fn`` at
  ``sim.now + delay``.  This is the cheapest way to express protocol timers
  and message deliveries.
* **Generator processes** — ``sim.spawn(generator)`` runs a Python generator
  as a cooperative process.  The generator yields :class:`Timeout` objects
  (sleep for a virtual duration) or :class:`Event` objects (wait until the
  event is triggered).  This is the SimPy-style model and is convenient for
  multi-step protocols such as DHT lookups or PBFT rounds.

Fast-path invariants
--------------------
The hot loop is tuned for throughput; every change must preserve these
invariants, which the determinism tests pin down:

* **Total order.** Entries execute in strict ``(time, seq)`` order, where
  ``seq`` is the global scheduling sequence number.  Events scheduled at the
  same instant therefore fire in scheduling order, which keeps runs fully
  deterministic for a given seed.
* **Two queues, one order.** Entries with a positive delay live in a binary
  heap; entries scheduled with ``delay == 0`` go to a FIFO *now-bucket*
  (``collections.deque``), making immediate events (event triggers, process
  resumes, zero-delay cascades) O(1) instead of O(log n).  The run loop
  merges both sources by comparing ``(time, seq)``, so the observable order
  is identical to a single heap.  All bucket entries carry ``time == now``:
  the clock never advances while the bucket is non-empty.
* **C-speed comparisons.** Heap entries are ``list`` subclasses laid out as
  ``[time, seq, callback, args, sim]`` so ``heapq`` compares them with the
  C list comparison (time first, then the unique ``seq`` — the callback is
  never compared).
* **O(1) accounting.** ``Simulator.pending`` is a live counter maintained by
  ``schedule``/``cancel``/the run loop — never a queue scan.  Cancellation
  sets the entry's callback slot to ``None``; the loop skips such entries
  when they surface.
"""

from __future__ import annotations

import heapq
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Deque, Generator, Iterable, List, Optional

__all__ = [
    "Event",
    "Interrupted",
    "INTERRUPTED",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
]


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


class Interrupted:
    """Sentinel delivered on a process's ``done`` event when interrupted."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return "INTERRUPTED"


#: Singleton sentinel value delivered by :meth:`Process.interrupt`.
INTERRUPTED = Interrupted()


class Event:
    """A one-shot event that processes (and plain callbacks) can wait on.

    An event starts *pending*; calling :meth:`succeed` (optionally with a
    value) triggers it, resuming every process that was waiting on it and
    scheduling every callback registered with :meth:`add_callback`.
    Triggering an event twice is an error.
    """

    __slots__ = ("sim", "name", "triggered", "value", "_waiters", "_callbacks")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self.triggered = False
        self.value: Any = None
        self._waiters: List["Process"] = []
        self._callbacks: List[Callable[[Any], None]] = []

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event, delivering ``value`` to all waiting processes."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self.value = value
        schedule = self.sim.schedule
        waiters = self._waiters
        if waiters:
            self._waiters = []
            for process in waiters:
                schedule(0.0, process._resume, value)
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = []
            for callback in callbacks:
                schedule(0.0, callback, value)
        return self

    def add_waiter(self, process: "Process") -> None:
        """Register ``process`` to be resumed when the event triggers."""
        if self.triggered:
            self.sim.schedule(0.0, process._resume, self.value)
        else:
            self._waiters.append(process)

    def add_callback(self, callback: Callable[[Any], None]) -> None:
        """Schedule ``callback(value)`` when the event triggers.

        This is the lightweight alternative to spawning a waiter process: a
        single zero-delay entry on the now-bucket, no generator machinery.
        """
        if self.triggered:
            self.sim.schedule(0.0, callback, self.value)
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "triggered" if self.triggered else "pending"
        return f"Event({self.name!r}, {state})"


class Timeout:
    """Yielded by a process generator to sleep for ``delay`` virtual seconds."""

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None) -> None:
        self.delay = delay
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Timeout({self.delay!r}, {self.value!r})"


class Process:
    """A generator running as a cooperative simulation process.

    The wrapped generator may yield:

    * :class:`Timeout` — resume after the given virtual delay.
    * :class:`Event` — resume when the event triggers; the event's value is
      sent back into the generator.
    * ``Process`` — resume when the other process finishes; its return value
      is sent back.

    When the generator returns, :attr:`done` becomes an event triggered with
    the generator's return value.  When the process is interrupted,
    :attr:`done` triggers with the :data:`INTERRUPTED` sentinel so that
    waiters (``all_of``/``any_of``/other processes) never hang.
    """

    __slots__ = ("sim", "generator", "name", "done", "alive")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "") -> None:
        self.sim = sim
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.done = Event(sim, name=f"{self.name}.done")
        self.alive = True

    def start(self) -> "Process":
        """Schedule the first step of the process at the current time."""
        self.sim.schedule(0.0, self._resume, None)
        return self

    def interrupt(self) -> None:
        """Stop the process; it will never be resumed again.

        The ``done`` event triggers with :data:`INTERRUPTED` so that anything
        waiting on the process (joins, ``all_of`` groups) is released rather
        than hanging forever.
        """
        if not self.alive:
            return
        self.alive = False
        if not self.done.triggered:
            self.done.succeed(INTERRUPTED)

    def _resume(self, value: Any) -> None:
        if not self.alive:
            return
        try:
            yielded = self.generator.send(value)
        except StopIteration as stop:
            self.alive = False
            if not self.done.triggered:
                self.done.succeed(getattr(stop, "value", None))
            return
        self._handle(yielded)

    def _handle(self, yielded: Any) -> None:
        if isinstance(yielded, Timeout):
            self.sim.schedule(yielded.delay, self._resume, yielded.value)
        elif isinstance(yielded, Event):
            yielded.add_waiter(self)
        elif isinstance(yielded, Process):
            yielded.done.add_waiter(self)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported object {yielded!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "alive" if self.alive else "finished"
        return f"Process({self.name!r}, {state})"


class Simulator:
    """Discrete-event simulator with a virtual clock.

    Entries are kept in a binary heap plus a FIFO now-bucket for zero-delay
    entries; see the module docstring for the fast-path invariants.

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

    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any
    ) -> _ScheduledCall:
        """Schedule ``callback(*args)`` at the absolute virtual time ``time``."""
        return self.schedule(max(0.0, time - self.now), callback, *args)

    def event(self, name: str = "") -> Event:
        """Create a new pending :class:`Event` bound to this simulator."""
        return Event(self, name=name)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Run ``generator`` as a :class:`Process`, starting immediately."""
        return Process(self, generator, name=name).start()

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Convenience constructor for :class:`Timeout` (mirrors SimPy)."""
        return Timeout(delay, value)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _pop_next(self) -> Optional[_ScheduledCall]:
        """Pop the next entry in ``(time, seq)`` order across both queues."""
        queue = self._queue
        bucket = self._bucket
        if bucket:
            if queue:
                head = queue[0]
                b = bucket[0]
                if head[0] > b[0] or (head[0] == b[0] and head[1] > b[1]):
                    return bucket.popleft()
                return heappop(queue)
            return bucket.popleft()
        if queue:
            return heappop(queue)
        return None

    def _peek_next(self) -> Optional[_ScheduledCall]:
        """The next live entry without popping it (cancelled ones are popped)."""
        queue = self._queue
        bucket = self._bucket
        while queue or bucket:
            if bucket:
                if queue:
                    head = queue[0]
                    b = bucket[0]
                    if head[0] > b[0] or (head[0] == b[0] and head[1] > b[1]):
                        nxt, from_bucket = b, True
                    else:
                        nxt, from_bucket = head, False
                else:
                    nxt, from_bucket = bucket[0], True
            else:
                nxt, from_bucket = queue[0], False
            if nxt[2] is not None:
                return nxt
            if from_bucket:
                bucket.popleft()
            else:
                heappop(queue)
        return None

    def step(self) -> bool:
        """Run the single next event.  Returns ``False`` if nothing is queued."""
        while True:
            entry = self._pop_next()
            if entry is None:
                return False
            callback = entry[2]
            if callback is None:
                continue
            if entry[0] < self.now - 1e-12:
                raise SimulationError("event queue time went backwards")
            self.now = entry[0]
            self._live -= 1
            callback(*entry[3])
            self._processed += 1
            return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue empties, ``until`` is reached, or
        ``max_events`` have been processed.  Returns the number of events run.
        """
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        self._running = True
        processed = 0
        queue = self._queue
        bucket = self._bucket
        pop = heappop
        popleft = bucket.popleft
        try:
            if until is None and max_events is None:
                # Fast path: no horizon, no cap — the tight loop the
                # benchmarks measure.  Merged (time, seq) pop inlined.
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
                        entry = pop(queue)
                    else:
                        break
                    callback = entry[2]
                    if callback is None:
                        continue
                    self.now = entry[0]
                    self._live -= 1
                    callback(*entry[3])
                    processed += 1
            else:
                while True:
                    if max_events is not None and processed >= max_events:
                        break
                    nxt = self._peek_next()
                    if nxt is None:
                        # Queue exhausted: the clock still advances to the
                        # requested horizon.
                        if until is not None and until > self.now:
                            self.now = until
                        break
                    if until is not None and nxt[0] > until:
                        self.now = until
                        break
                    entry = self._pop_next()
                    if entry is None:  # unreachable: _peek_next saw one
                        break
                    self.now = entry[0]
                    # Decrement before invoking: a raising callback must not
                    # leave its (already popped) entry counted as pending.
                    self._live -= 1
                    entry[2](*entry[3])
                    processed += 1
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

    def drain(self) -> None:
        """Drop every pending event without running it."""
        for entry in self._queue:
            entry[2] = None
            entry[3] = ()
            entry[4] = None
        for entry in self._bucket:
            entry[2] = None
            entry[3] = ()
            entry[4] = None
        self._queue.clear()
        self._bucket.clear()
        self._live = 0

    def all_of(self, events: Iterable[Event], name: str = "all_of") -> Event:
        """Return an event that triggers once every event in ``events`` has."""
        events = list(events)
        combined = self.event(name=name)
        count = len(events)
        if count == 0:
            combined.succeed([])
            return combined
        remaining = [count]
        values: List[Any] = [None] * count

        def _make_callback(index: int) -> Callable[[Any], None]:
            def _on_trigger(value: Any) -> None:
                values[index] = value
                remaining[0] -= 1
                if remaining[0] == 0 and not combined.triggered:
                    combined.succeed(values)

            return _on_trigger

        for index, event in enumerate(events):
            event.add_callback(_make_callback(index))
        return combined

    def any_of(self, events: Iterable[Event], name: str = "any_of") -> Event:
        """Return an event that triggers when the first of ``events`` does."""
        combined = self.event(name=name)

        def _on_trigger(value: Any) -> None:
            if not combined.triggered:
                combined.succeed(value)

        for event in events:
            event.add_callback(_on_trigger)
        return combined
