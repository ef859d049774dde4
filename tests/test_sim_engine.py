"""Unit tests for the discrete-event simulation engine."""

import time

import pytest

from repro.sim.engine import SimulationError, Simulator


class TestScheduling:
    def test_schedule_runs_callback_at_time(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "a")
        sim.run()
        assert fired == ["a"]
        assert sim.now == 5.0

    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, order.append, 3)
        sim.schedule(1.0, order.append, 1)
        sim.schedule(2.0, order.append, 2)
        sim.run()
        assert order == [1, 2, 3]

    def test_same_time_events_run_in_scheduling_order(self):
        sim = Simulator()
        order = []
        for index in range(10):
            sim.schedule(1.0, order.append, index)
        sim.run()
        assert order == list(range(10))

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []

    def test_run_until_stops_clock_at_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, fired.append, "late")
        sim.run(until=5.0)
        assert fired == []
        assert sim.now == 5.0
        sim.run()
        assert fired == ["late"]

    def test_nested_scheduling_from_callback(self):
        sim = Simulator()
        results = []

        def outer():
            results.append(("outer", sim.now))
            sim.schedule(2.0, inner)

        def inner():
            results.append(("inner", sim.now))

        sim.schedule(1.0, outer)
        sim.run()
        assert results == [("outer", 1.0), ("inner", 3.0)]

    def test_processed_counter(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.processed == 2


class TestFastPathAccounting:
    def test_pending_reflects_cancels_without_running(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        assert sim.pending == 10
        handles[3].cancel()
        handles[7].cancel()
        assert sim.pending == 8
        handles[3].cancel()  # idempotent
        assert sim.pending == 8
        sim.run()
        assert sim.pending == 0
        assert sim.processed == 8

    def test_cancel_is_o1(self):
        # Cancelling must not scan the queue: 50k cancels against a
        # 100k-entry queue finish in well under a second, where an O(n)
        # scan per cancel would take minutes.
        sim = Simulator()
        noop = lambda: None
        handles = [sim.schedule(float(i + 1), noop) for i in range(100_000)]
        start = time.perf_counter()
        for handle in handles[::2]:
            handle.cancel()
        elapsed = time.perf_counter() - start
        assert sim.pending == 50_000
        assert elapsed < 1.0

    def test_pending_is_o1(self):
        sim = Simulator()
        for i in range(50_000):
            sim.schedule(float(i + 1), lambda: None)
        start = time.perf_counter()
        for _ in range(10_000):
            sim.pending
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5

    def test_zero_delay_entry_ordered_against_same_time_heap_entry(self):
        # A timer that lands at t=1 was scheduled before the zero-delay
        # callback created at t=1, so it must run first.
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(0.0, order.append, "zero")

        sim.schedule(1.0, first)
        sim.schedule(1.0, order.append, "second")
        sim.run()
        assert order == ["first", "second", "zero"]

    def test_raising_callback_does_not_corrupt_pending(self):
        sim = Simulator()

        def boom():
            raise RuntimeError("boom")

        sim.schedule(1.0, boom)
        with pytest.raises(RuntimeError):
            sim.run()
        assert sim.pending == 0
        assert sim.processed == 0

    def test_pending_is_accurate_mid_run(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(sim.pending))
        sim.schedule(2.0, lambda: seen.append(sim.pending))
        sim.run()
        # While the first callback runs only the second entry is queued;
        # while the second runs the queue is empty.
        assert seen == [1, 0]

    def test_cancelled_zero_delay_entry_skipped(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(0.0, fired.append, "x")
        sim.schedule(0.0, fired.append, "y")
        handle.cancel()
        assert sim.pending == 1
        sim.run()
        assert fired == ["y"]


class TestRunEdgeCases:
    def test_cancelled_head_entries_are_skipped_under_until(self):
        sim = Simulator()
        fired = []
        first = sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        last = sim.schedule(3.0, fired.append, "c")
        first.cancel()
        last.cancel()
        processed = sim.run(until=5.0)
        assert processed == 1
        assert fired == ["b"]
        assert sim.now == 5.0
        assert sim.pending == 0

    def test_until_exactly_on_event_time_runs_the_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "on-horizon")
        sim.schedule(5.5, fired.append, "late")
        processed = sim.run(until=5.0)
        assert processed == 1
        assert fired == ["on-horizon"]
        assert sim.now == 5.0
        sim.run()
        assert fired == ["on-horizon", "late"]

    def test_clock_advances_to_until_on_empty_queue(self):
        sim = Simulator()
        assert sim.run(until=10.0) == 0
        assert sim.now == 10.0
        # A later horizon advances again; an earlier one does not rewind.
        assert sim.run(until=25.0) == 0
        assert sim.now == 25.0
        assert sim.run(until=5.0) == 0
        assert sim.now == 25.0

    def test_run_until_in_the_past_leaves_the_clock_alone(self):
        sim = Simulator()
        fired = []
        sim.schedule(20.0, fired.append, "later")
        sim.run(until=15.0)
        sim.schedule(0.0, fired.append, "now")
        assert sim.run(until=5.0) == 0
        assert sim.now == 15.0
        assert fired == []
        assert sim.pending == 2
        sim.run()
        assert fired == ["now", "later"]


class TestOneLoop:
    """``run()``, ``run(until=H)`` and a sliced run are the same loop."""

    HORIZON = 10.0

    @staticmethod
    def _mixed_workload(sim, trace):
        """Heap timers, zero-delay cascades, callbacks that schedule both
        kinds, and cancelled heads in the heap *and* in the now-bucket.

        Tags are handed out in scheduling order, so ``(sim.now, tag)`` is the
        ``(time, seq)`` order the engine promises.
        """
        tags = iter(range(10_000))
        delays = (0.25, 0.5, 1.0)

        def fire(tag, depth):
            trace.append((sim.now, tag))
            if depth == 0:
                return
            # A cancelled entry at the head of the bucket, then a live one.
            sim.schedule(0.0, fire, next(tags), 0).cancel()
            sim.schedule(0.0, fire, next(tags), depth - 1)
            # A cancelled timer that will surface at the head of the heap
            # before the live one scheduled after it.
            sim.schedule(0.125, fire, next(tags), 0).cancel()
            sim.schedule(delays[tag % 3], fire, next(tags), depth - 1)

        for start in (0.0, 0.5, 1.0, 1.0, 3.75):
            sim.schedule(start, fire, next(tags), 4)

    def _reference(self):
        sim = Simulator()
        trace = []
        self._mixed_workload(sim, trace)
        processed = sim.run()
        assert processed == len(trace) == sim.processed
        assert trace == sorted(trace)
        assert trace[-1][0] < self.HORIZON
        return trace

    def test_one_horizon_runs_the_same_order(self):
        reference = self._reference()
        sim = Simulator()
        trace = []
        self._mixed_workload(sim, trace)
        assert sim.run(until=self.HORIZON) == len(reference)
        assert trace == reference
        assert sim.now == self.HORIZON
        assert sim.pending == 0

    def test_ten_slices_run_the_same_order(self):
        reference = self._reference()
        sim = Simulator()
        trace = []
        self._mixed_workload(sim, trace)
        for index in range(1, 11):
            boundary = self.HORIZON * index / 10
            sim.run(until=boundary)
            # Everything up to and *on* the boundary has run, nothing after
            # it; with the queue empty the clock still reaches the boundary.
            assert trace == [entry for entry in reference if entry[0] <= boundary]
            assert sim.now == boundary
        assert trace == reference
        # Slice boundaries did fall on event times.
        assert {1.0, 2.0} <= {time for time, _ in reference}

    def test_raising_callback_under_a_horizon_leaves_pending_exact(self):
        sim = Simulator()

        def boom():
            raise RuntimeError("boom")

        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, boom)
        sim.schedule(2.0, lambda: None)
        sim.schedule(0.5, lambda: None).cancel()
        with pytest.raises(RuntimeError):
            sim.run(until=5.0)
        assert sim.pending == 1
        assert sim.processed == 1
        assert sim.now == 2.0
        assert sim.run(until=5.0) == 1
        assert sim.now == 5.0


class TestScheduleEach:
    """``schedule_each(callback, pairs)`` is a loop of ``schedule``."""

    @staticmethod
    def run_twin(batched):
        """A workload that queues batches among single entries, at ``t=0``
        and from inside callbacks (where zero delays meet the now-bucket);
        returns the run order and the pending counts seen on the way."""
        sim = Simulator()
        trace, pending = [], []

        def record(label):
            trace.append((sim.now, label))

        def queue(pairs):
            if batched:
                sim.schedule_each(record, pairs)
            else:
                for delay, label in pairs:
                    sim.schedule(delay, record, label)
            pending.append(sim.pending)

        def cascade(tag):
            record(tag)
            sim.schedule(0.0, record, f"{tag}-zero-before")
            queue([(0.0, f"{tag}-b0"), (1.0, f"{tag}-b1"), (0.0, f"{tag}-b2"),
                   (0.5, f"{tag}-b3"), (1.0, f"{tag}-b4")])
            sim.schedule(0.0, record, f"{tag}-zero-after")
            sim.schedule(1.0, record, f"{tag}-tie")

        sim.schedule(1.0, record, "first")
        queue([(1.0, "a"), (2.0, "b"), (1.0, "c"), (0.0, "now")])
        sim.schedule(1.0, cascade, "x")
        sim.schedule(1.5, cascade, "y")
        queue([])
        sim.schedule(2.0, record, "last")
        pending.append(sim.pending)
        processed = sim.run()
        return trace, pending, processed, sim.pending

    def test_same_order_and_pending_as_a_schedule_loop(self):
        got = self.run_twin(batched=True)
        assert got == self.run_twin(batched=False)
        trace = [label for _, label in got[0]]
        # Ties at t=1: earlier seq first, the now-bucket merged by seq.
        assert trace[:4] == ["now", "first", "a", "c"]
        assert trace[4:9] == ["x", "x-zero-before", "x-b0", "x-b2", "x-zero-after"]

    def test_a_later_cancel_of_an_unrelated_entry_still_works(self):
        sim = Simulator()
        fired = []
        before = sim.schedule(1.0, fired.append, "before")
        sim.schedule_each(fired.append, [(1.0, "p"), (0.5, "q")])
        after = sim.schedule(0.75, fired.append, "after")
        assert sim.pending == 4
        before.cancel()
        after.cancel()
        assert sim.pending == 2
        assert sim.run() == 2
        assert fired == ["q", "p"]
        assert sim.pending == 0

    @pytest.mark.parametrize("bad", [-1.0, -1e-12, float("nan")])
    def test_a_negative_delay_raises_and_keeps_what_came_before(self, bad):
        sim, loop = Simulator(), Simulator()
        fired, looped = [], []
        pairs = [(2.0, "a"), (0.0, "b"), (bad, "c"), (1.0, "d")]
        with pytest.raises(SimulationError, match="cannot schedule in the past"):
            sim.schedule_each(fired.append, pairs)
        with pytest.raises(SimulationError):
            for delay, label in pairs:
                loop.schedule(delay, looped.append, label)
        assert sim.pending == loop.pending == 2
        tail = sim.schedule(2.0, fired.append, "e")
        loop.schedule(2.0, looped.append, "e")
        assert tail.seq == 3
        sim.run()
        loop.run()
        assert fired == looped == ["b", "a", "e"]
