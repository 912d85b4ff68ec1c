"""Unit tests for repro.sim.engine."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from repro.sim import SimulationError, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        fired = []
        for name in "abc":
            sim.schedule(1.0, lambda n=name: fired.append(n))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]
        assert sim.now == 5.0

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_at(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(4.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [4.0]

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(1.0, lambda: fired.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == [("outer", 1.0), ("inner", 2.0)]


class TestRunControl:
    def test_run_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        n = sim.run(until=5.0)
        assert n == 1 and fired == [1]
        assert sim.now == 5.0  # clock advanced to the horizon
        sim.run()
        assert fired == [1, 10]

    def test_budgeted_run_never_moves_clock_backwards(self):
        sim = Simulator()
        seen = []
        for t in (1.0, 2.0, 20.0):
            sim.schedule(t, lambda: seen.append(sim.now))
        assert sim.run(until=10.0, max_events=1) == 1
        # The budget stopped the run with a 2 s event still due: the
        # clock stays at the last fired event instead of jumping to 10.
        assert sim.now == 1.0
        # An unspent budget still advances to the horizon.
        assert sim.run(until=10.0, max_events=5) == 1
        assert sim.now == 10.0
        sim.run()
        assert seen == [1.0, 2.0, 20.0]
        assert sim.now == 20.0

    def test_max_events_resumes_identically(self):
        def drive(budget):
            sim = Simulator()
            log = []
            for i in range(50):
                sim.schedule(0.01 * (i % 7), lambda i=i: log.append((sim.now, i)))
            if budget is None:
                sim.run()
            else:
                while sim.run(max_events=budget):
                    pass
            return log, sim.now, sim.processed

        assert drive(7) == drive(None)

    def test_run_max_events(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        assert sim.run(max_events=3) == 3
        assert sim.pending == 2

    def test_step(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        assert sim.step() is True
        assert sim.step() is False
        assert fired == [1]

    def test_cancel(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule(1.0, lambda: fired.append(1))
        ev.cancel()
        sim.run()
        assert fired == []

    def test_processed_counter(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.processed == 4


class TestPendingCounter:
    """``Simulator.pending`` is an exact O(1) live-event count."""

    def test_cancel_decrements_pending(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending == 2
        ev.cancel()
        assert sim.pending == 1

    def test_double_cancel_is_noop(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        ev.cancel()
        ev.cancel()
        assert sim.pending == 0

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.pending == 0
        ev.cancel()
        assert sim.pending == 0

    def test_max_events_pushback_keeps_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(float(i + 1), lambda: None)
        sim.run(max_events=2)
        assert sim.pending == 2
        sim.run()
        assert sim.pending == 0

    def test_cancelled_events_never_fire_and_drain(self):
        sim = Simulator()
        fired = []
        keep = sim.schedule(2.0, lambda: fired.append("keep"))
        drop = sim.schedule(1.0, lambda: fired.append("drop"))
        drop.cancel()
        assert sim.pending == 1
        sim.run()
        assert fired == ["keep"]
        assert sim.pending == 0
        assert keep.fired and not drop.fired


class TestPeriodicTask:
    def test_fires_repeatedly(self):
        sim = Simulator()
        ticks = []
        task = sim.schedule_periodic(2.0, lambda: ticks.append(sim.now))
        sim.run(until=9.0)
        assert ticks == [2.0, 4.0, 6.0, 8.0]
        assert task.fired == 4

    def test_first_delay(self):
        sim = Simulator()
        ticks = []
        sim.schedule_periodic(5.0, lambda: ticks.append(sim.now), first_delay=0.0)
        sim.run(until=11.0)
        assert ticks == [0.0, 5.0, 10.0]

    def test_stop(self):
        sim = Simulator()
        ticks = []
        task = sim.schedule_periodic(1.0, lambda: ticks.append(sim.now))
        sim.run(until=2.5)
        task.stop()
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0]
        assert task.stopped

    def test_stop_from_within_callback(self):
        sim = Simulator()
        ticks = []

        def tick():
            ticks.append(sim.now)
            if len(ticks) == 2:
                task.stop()

        task = sim.schedule_periodic(1.0, tick)
        sim.run(until=10.0)
        assert len(ticks) == 2

    def test_invalid_interval(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_periodic(0.0, lambda: None)

    def test_jitter_bounded(self):
        sim = Simulator()
        ticks = []
        rng = np.random.default_rng(0)
        sim.schedule_periodic(
            10.0, lambda: ticks.append(sim.now), jitter=0.1, rng=rng
        )
        sim.run(until=100.0)
        gaps = np.diff([0.0] + ticks)
        assert all(9.0 <= g <= 11.0 for g in gaps)


class _ListScheduler:
    """Reference scheduler: a flat list scanned for the minimum (time, seq)."""

    def __init__(self):
        self.now, self.processed, self.items = 0.0, 0, []
        self._seq = itertools.count()

    def schedule(self, delay, fn):
        item = (self.now + delay, next(self._seq), fn)
        self.items.append(item)
        return SimpleNamespace(cancel=lambda: self.items.remove(item))

    def schedule_periodic(self, interval, fn, first_delay):
        def tick():
            fn()
            self.schedule(interval, tick)

        self.schedule(first_delay, tick)

    def run(self, until):
        while self.items:
            item = min(self.items, key=lambda it: it[:2])
            if item[0] > until:
                break
            self.items.remove(item)
            self.now, self.processed = item[0], self.processed + 1
            item[2]()
        self.now = max(self.now, until)


def _mixed_workload(sim, seed: int) -> list:
    """Drive a randomized mix of one-shots, periodics, nested schedules
    and cancellations; returns the observed firing log."""
    rng = np.random.default_rng(seed)
    log = []
    handles = []

    def fire(tag):
        log.append((round(sim.now, 9), tag))
        # Nested schedules from inside handlers, including same-instant
        # ones that tie with events already queued.
        if rng.random() < 0.3:
            tag2 = f"{tag}+n"
            sim.schedule(float(rng.choice([0.0, 0.01, 0.5])),
                         lambda: log.append((round(sim.now, 9), tag2)))

    for i in range(400):
        # Dense near-future delays, far-future ones that never fire
        # within the run, and exact ties (seq-ordered).
        delay = float(rng.choice([
            rng.uniform(0, 2), rng.uniform(0, 60),
            rng.uniform(3000, 8000), 1.0, 1.0,
        ]))
        handles.append(sim.schedule(delay, lambda i=i: fire(f"e{i}")))
    for j in range(6):
        sim.schedule_periodic(
            0.7 + 0.1 * j, lambda j=j: log.append((round(sim.now, 9), f"p{j}")),
            first_delay=0.1 * j,
        )
    # Cancel a deterministic third of the one-shots.
    for k, h in enumerate(handles):
        if k % 3 == 0:
            h.cancel()
    sim.run(until=40.0)
    return log


class TestReferenceOrdering:
    """The heap fires in exactly the order of a brute-force scheduler."""

    def test_firing_log_matches_reference(self):
        for seed in (1, 7):
            log = _mixed_workload(Simulator(), seed)
            assert log == _mixed_workload(_ListScheduler(), seed)
            assert log  # the workload actually fired

    def test_clock_and_counters_match_reference(self):
        sim, ref = Simulator(), _ListScheduler()
        _mixed_workload(sim, 3)
        _mixed_workload(ref, 3)
        assert sim.now == ref.now == 40.0
        assert sim.processed == ref.processed
        assert sim.pending == len(ref.items)


class TestHeapCompaction:
    def test_tombstones_compacted_above_half(self):
        sim = Simulator()
        handles = [sim.schedule(5000.0 + i, lambda: None) for i in range(200)]
        for h in handles[:101]:
            h.cancel()
        assert len(sim._queue) < 200
        assert sim._heap_cancelled == 0
        assert all(not ev.cancelled for _, _, ev in sim._queue)
        assert sim.pending == 99

    def test_small_heaps_left_alone(self):
        sim = Simulator()
        handles = [sim.schedule(5000.0 + i, lambda: None) for i in range(10)]
        for h in handles:
            h.cancel()
        # Below the compaction floor: tombstones stay until popped.
        assert len(sim._queue) == 10
        sim.run()
        assert sim.processed == 0
        assert sim._queue == [] and sim._heap_cancelled == 0

    def test_compaction_preserves_order(self):
        sim = Simulator()
        log = []
        handles = [
            sim.schedule(float(i % 13) + 1.0, lambda i=i: log.append(i))
            for i in range(300)
        ]
        cancelled = {i for i in range(300) if i % 2 == 0}
        for i in sorted(cancelled):
            handles[i].cancel()
        ref = Simulator()
        ref_log = []
        for i in range(300):
            if i not in cancelled:
                ref.schedule(float(i % 13) + 1.0, lambda i=i: ref_log.append(i))
        sim.run()
        ref.run()
        assert log == ref_log
