"""Machine speed over a run, from a fixed reference computation timed often.

On a shared host the speed of the processor drifts by a quarter and more,
over seconds to minutes, and CPU time drifts with wall time: the slowdown
comes from other tenants on the same cores and caches, not from the process
waiting.  Such a drift moves every timing of a run together, so the spread
of a timing between runs of the same code is mostly the machine's.

While ``Speedometer.running()`` is active, a wall-clock timer interrupts
the process every ``EVERY_S`` seconds, inside jobs too, to time
``reference()``, a fixed computation that uses no kontact code.  The time
the interruptions take is counted in ``spent``, for the caller to take out
of the job it interrupted.  ``factor(start, end)`` is ``REFERENCE_S`` over
the lower quartile of the reference times from ``WINDOW_S`` before
``start`` to ``WINDOW_S`` after ``end``: multiplied by it, seconds measured
in that span read as seconds at one fixed speed, the speed at which
``reference()`` takes ``REFERENCE_S``.  Since ``reference()`` does not change with kontact, a
change to kontact moves a scaled time by the same share as the raw one.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import random
import signal
import statistics
import time
from fractions import Fraction

import numpy

# seconds reference() takes at the fixed speed: about the lower quartile of
# its times during runs on the 2-vCPU VM the bounds in BENCHMARK.json were
# set on, so that scaled times read about as the raw ones do there
REFERENCE_S = 0.0037
EVERY_S = 0.1
WINDOW_S = 1.0
WARMUP = 5
# The reference walks WALK of POOL small objects in random order, a heap of
# about 5 MB, so that like kontact's expression trees it waits on memory
# and not only on the processor: a compute-only reference sped up by half
# again as much as kontact when the machine ran fast.
POOL = 100_000
WALK = 16_000


class _Node:
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value


def reference(matrix: numpy.ndarray, walk: list) -> None:
    """About 3 ms of the kinds of work kontact does: rational arithmetic,
    dict and tuple traffic, sorting, recursion, small SVDs and a walk over
    objects scattered in memory."""
    acc = Fraction(0)
    table: dict = {}
    for i in range(1, 400):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        key = (i % 17, i % 5)
        table[key] = table.get(key, 0) + i
    sorted(table.items(), key=lambda kv: (kv[1], kv[0]))

    def recurse(n: int) -> int:
        return 1 if n < 2 else recurse(n - 1) + recurse(n - 2)

    recurse(14)
    for _ in range(3):
        numpy.linalg.svd(matrix)
    total = 0
    for node in walk:
        total += node.value


class Speedometer:
    def __init__(self):
        self.matrix = numpy.sin(numpy.arange(600.0)).reshape(20, 30)
        pool = [_Node(i % 256) for i in range(POOL)]  # small ints are shared
        random.Random(0).shuffle(pool)
        self.pool = pool  # the walk's nodes stay where the whole pool put them
        self.walk = pool[:WALK]
        self.at: list[float] = []
        self.took: list[float] = []
        self.spent = 0.0
        self._sampling = False
        for _ in range(WARMUP):
            reference(self.matrix, self.walk)

    def sample(self) -> None:
        """Time one reference(); the collector is off, so the heap the jobs
        left behind does not change its time."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference(self.matrix, self.walk)
            took = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.at.append(start)
        self.took.append(took)

    def _interrupt(self, signum, frame) -> None:
        if self._sampling:  # a late tick inside a sample: skip it
            return
        self._sampling = True
        entered = time.perf_counter()
        try:
            self.sample()
        finally:
            self.spent += time.perf_counter() - entered
            self._sampling = False

    @contextlib.contextmanager
    def running(self):
        """Sample every ``EVERY_S`` seconds while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._interrupt)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, start: float, end: float) -> float:
        """What turns seconds measured from ``start`` to ``end`` into seconds
        at the fixed speed."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if lo == hi:  # no sample near: take the last one before
            lo = max(lo - 1, 0)
            hi = lo + 1
        took = self.took[lo:hi]
        # interference only ever slows a sample down; in runs of the same
        # code, the lower quartile of the samples near a job run read the
        # speed with less noise than their median
        quartile = statistics.quantiles(took, n=4)[0] if len(took) > 1 else took[0]
        return REFERENCE_S / quartile
