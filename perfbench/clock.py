"""Host-speed-normalised timing of a timed phase.

On a shared host the speed of one core swings by tens of percent within
seconds, with other tenants' load on the same cores and caches. The same
deterministic rep of ``query_stream`` took from 4.9 s to 7.8 s of wall
time within a few minutes on the 2-core host this benchmark was written
on. A run that falls in a slow stretch reads slow on every wall-time
metric, far beyond any bound a later change could be judged by.

The :class:`SpeedClock` interleaves a fixed reference kernel with the
timed work. An interval timer interrupts the work every ``INTERVAL``
seconds; the handler runs :func:`reference` once to warm it up and once
more timed. Each stretch of work is rescaled by ``NOMINAL_REF_S`` over
the timed sample that ends it, raised to ``ELASTICITY``, and the sum is
the phase's duration at a fixed host speed: the time it would have taken
on a host where the reference takes ``NOMINAL_REF_S``. On that host,
across repeated reps of one sub-stream in quiet and loaded stretches,
the raw measured time varied with a coefficient of variation of 0.10 to
0.16 and the normalised time with 0.02 to 0.03. The speed must be
sampled locally: one host-speed factor for the whole rep (the median of
its samples) left 0.08.

The reference is the benchmark's own code, never ``repro``'s, so a
change to the program moves the normalised time and never the
yardstick. It allocates no garbage-collected objects, so it never
triggers, and is never charged for, a collection of the program's heap.
"""

from __future__ import annotations

import heapq
import signal
import time
from typing import List

import numpy as np

#: seconds between two reference samples
INTERVAL = 0.1
#: the reference kernel's duration on the nominal host: about its median,
#: sampled between stretches of work, on the host this benchmark was
#: written on, so that normalised times read close to raw ones there
NOMINAL_REF_S = 1.1e-3
#: how strongly the program's speed follows the reference's: a stretch
#: run while the reference took ``k`` times ``NOMINAL_REF_S`` is scaled
#: by ``k ** -ELASTICITY``. The reference is core-bound and the program
#: partly waits on memory, which other tenants slow less; fitted on
#: repeated reps of ``query_stream`` and ``audited_lossy``, where 0.75 to
#: 0.85 left the least spread (1.0 over-corrects slow stretches)
ELASTICITY = 0.75

_VALUES = np.linspace(-0.5, 1.5, 64)
_KEYS = 512


class _Cell:
    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float) -> None:
        self.lo = lo
        self.hi = hi

    def width(self, x: float) -> float:
        return min(max(x, self.lo), self.hi) - self.lo


_CELL = _Cell(0.0, 1.0)
_TABLE = {k: 0 for k in range(_KEYS)}
_HEAP = list(range(0, 2 * _KEYS, 2))


def reference() -> float:
    """A fixed mix of interpreter work (dict, heap, method calls) and
    scalar NumPy calls, like the simulator's; about 1 ms on the nominal
    host."""
    table, heap, cell, values = _TABLE, _HEAP, _CELL, _VALUES
    acc = 0.0
    for i in range(600):
        k = (i * 7919) % _KEYS
        table[k] = table[k] + 1
        acc += cell.width(values[i & 63] * 0.5)
        heapq.heapreplace(heap, heap[0] + 2 * _KEYS)
    for i in range(24):
        acc += float(np.clip(values[i], 0.0, 1.0))
        acc += float(np.floor(values[i + 8] * 10.0))
    return acc


def _time_reference(clock=time.perf_counter) -> float:
    """One timed reference sample, after an untimed run that warms the
    kernel's code and data back into the caches the work evicted."""
    reference()
    t0 = clock()
    reference()
    return clock() - t0


class SpeedClock:
    """Context manager timing one phase with the reference interleaved.

    A real-time interval timer raises ``SIGALRM`` every ``INTERVAL``
    seconds; the handler runs between two bytecodes of the phase, closes
    the current stretch of work and takes one reference sample. The
    handler touches nothing of the program's, so the phase simulates the
    same run with or without the clock.
    """

    def __init__(self) -> None:
        #: wall seconds of each stretch of work; stretch ``j`` ends at
        #: reference sample ``j``
        self.work: List[float] = []
        self.refs: List[float] = []

    def __enter__(self) -> "SpeedClock":
        clock = time.perf_counter
        work, refs = self.work, self.refs
        mark = clock()
        busy = False

        def sample(signum, frame) -> None:
            nonlocal mark, busy
            if busy:  # a late tick while sampling: skip it
                return
            busy = True
            work.append(clock() - mark)
            refs.append(_time_reference(clock))
            mark = clock()
            busy = False

        def close() -> None:
            work.append(clock() - mark)
            refs.append(_time_reference(clock))

        self._close = close
        self._handler = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._handler)
        self._close()

    @property
    def work_s(self) -> float:
        """Raw wall seconds of work, reference samples excluded."""
        return float(sum(self.work))

    @property
    def normalized_s(self) -> float:
        """The work's duration at the nominal host speed."""
        scale = (NOMINAL_REF_S / np.array(self.refs)) ** ELASTICITY
        return float(np.dot(self.work, scale))
