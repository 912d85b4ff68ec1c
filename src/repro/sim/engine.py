"""Discrete-event simulation engine.

A minimal, deterministic event scheduler: events are ``(time, seq, fn)``
triples dispatched in strict ``(time, seq)`` order so runs are
reproducible. Nodes in the network layers are reactive actors whose
handlers schedule further events.

The queue is one binary heap of ``(time, seq, event)`` tuples. ``seq``
is unique, so the tuples compare in C on ``(time, seq)`` and no
:class:`Event` is ever compared; ties in time break by insertion order.
Cancelled events stay on the heap as tombstones until popped, or until
they dominate it and one rebuild drops them. One loop in
:meth:`Simulator.run` dispatches every event; :meth:`Simulator.step` is
that loop with a budget of one.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from typing import Callable, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised for scheduler misuse (negative delays, running backwards)."""


class Event:
    """Handle for a scheduled callback; supports cancellation."""

    __slots__ = ("time", "fn", "cancelled", "fired", "label", "_sim")

    def __init__(
        self,
        time: float,
        fn: Callable[[], None],
        sim=None,
        label: Optional[str] = None,
    ):
        self.time = time
        self.fn = fn
        self.cancelled = False
        self.fired = False
        #: profiling frame name for this event's handler (None = generic);
        #: schedule sites only pay for it when a profiler is attached
        self.label = label
        self._sim = sim

    def cancel(self) -> None:
        """Cancel the event; no-op if already cancelled or fired."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._note_cancel()


class Simulator:
    """Binary-heap discrete-event scheduler with a virtual clock."""

    #: minimum heap size before tombstone compaction is considered
    _COMPACT_MIN = 64

    def __init__(self):
        self._now = 0.0
        self._queue: List[Tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._processed = 0
        # Live (not-yet-fired, not-cancelled) event count, maintained on
        # schedule/cancel/fire so ``pending`` never scans the heap.
        self._pending = 0
        #: cancelled-but-unpopped events still sitting on the heap
        self._heap_cancelled = 0
        #: optional call-path profiler
        #: (:class:`repro.telemetry.profiling.CallPathProfiler`); when
        #: set, the dispatch loop opens a ``sim.dispatch`` frame, every
        #: handler invocation gets a child frame named after its event
        #: label (``sim.event`` when unlabeled), and processed events
        #: land in the ``sim.events`` counter. ``None`` (the default)
        #: keeps the hot path free of profiler calls.
        self.profiler = None

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of live (not-yet-fired, non-cancelled) events. O(1)."""
        return self._pending

    @property
    def processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def schedule(
        self,
        delay: float,
        fn: Callable[[], None],
        label: Optional[str] = None,
    ) -> Event:
        """Run *fn* at ``now + delay``; returns a cancellable handle.

        *label* names the handler's profiling frame; pass it only when a
        profiler is attached (it is dead weight otherwise).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        ev = Event(time, fn, self, label)
        heappush(self._queue, (time, next(self._seq), ev))
        self._pending += 1
        return ev

    def schedule_at(
        self,
        time: float,
        fn: Callable[[], None],
        label: Optional[str] = None,
    ) -> Event:
        """Run *fn* at absolute virtual *time* (must be >= now)."""
        return self.schedule(time - self._now, fn, label)

    def schedule_periodic(
        self,
        interval: float,
        fn: Callable[[], None],
        *,
        first_delay: Optional[float] = None,
        jitter: float = 0.0,
        rng=None,
        label: Optional[str] = None,
    ) -> "PeriodicTask":
        """Run *fn* every *interval* seconds until the task is stopped."""
        if interval <= 0:
            raise SimulationError("interval must be positive")
        task = PeriodicTask(self, interval, fn, jitter=jitter, rng=rng, label=label)
        task.start(first_delay if first_delay is not None else interval)
        return task

    def _note_cancel(self) -> None:
        """Count a cancellation; compact the heap once tombstones dominate.

        Cancelled events stay in place until popped; under churn-heavy
        drills (mass cancellations) they would otherwise inflate memory
        and pop cost indefinitely. When more than half the heap is dead
        and the heap is non-trivial, rebuild it without tombstones —
        heapify is O(n), amortized O(1) per cancellation. The rebuild is
        in place so a running dispatch loop's reference stays valid.
        """
        self._pending -= 1
        self._heap_cancelled += 1
        queue = self._queue
        n = len(queue)
        if n >= self._COMPACT_MIN and self._heap_cancelled * 2 > n:
            queue[:] = [entry for entry in queue if not entry[2].cancelled]
            heapify(queue)
            self._heap_cancelled = 0

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Process events until the queue drains, *until*, or *max_events*.

        Returns the number of events processed by this call. When *until*
        is given and the queue drained or the next live event lies past
        it, the clock advances to *until*; a run cut short by
        *max_events* leaves the clock at the last fired event, so a later
        run never moves it backwards.
        """
        queue = self._queue
        prof = self.profiler
        processed = 0
        if prof is not None:
            prof.enter("sim.dispatch")
        try:
            while queue:
                time, _, ev = queue[0]
                if until is not None and time > until:
                    break
                if ev.cancelled:
                    heappop(queue)
                    self._heap_cancelled -= 1
                    continue
                if max_events is not None and processed >= max_events:
                    return processed
                heappop(queue)
                self._now = time
                ev.fired = True
                self._pending -= 1
                if prof is None:
                    ev.fn()
                else:
                    prof.enter(ev.label or "sim.event")
                    try:
                        ev.fn()
                    finally:
                        prof.exit()
                processed += 1
                self._processed += 1
            if until is not None and self._now < until:
                self._now = until
            return processed
        finally:
            if prof is not None:
                prof.exit()
                prof.count("sim.events", processed)

    def step(self) -> bool:
        """Process a single event; returns False when the queue is empty."""
        return self.run(max_events=1) == 1


class PeriodicTask:
    """Repeating event created by :meth:`Simulator.schedule_periodic`."""

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        fn,
        *,
        jitter: float = 0.0,
        rng=None,
        label: Optional[str] = None,
    ):
        self._sim = sim
        self._interval = interval
        self._fn = fn
        self._jitter = jitter
        self._rng = rng
        self._label = label
        self._event: Optional[Event] = None
        self._stopped = False
        self.fired = 0

    def start(self, first_delay: float) -> None:
        self._event = self._sim.schedule(first_delay, self._tick, self._label)

    def _next_delay(self) -> float:
        if self._jitter and self._rng is not None:
            return self._interval * (1.0 + self._jitter * (2.0 * self._rng.random() - 1.0))
        return self._interval

    def _tick(self) -> None:
        if self._stopped:
            return
        self.fired += 1
        self._fn()
        if not self._stopped:
            self._event = self._sim.schedule(
                self._next_delay(), self._tick, self._label
            )

    def stop(self) -> None:
        self._stopped = True
        if self._event is not None:
            self._event.cancel()

    @property
    def stopped(self) -> bool:
        return self._stopped
