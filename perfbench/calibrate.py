"""Machine-speed correction for the benchmark's timings.

The benchmark runs on shared machines whose speed drifts while it runs:
identical booth runs (500 iterations, one seed) took 0.115 s in one 15 s
window and 0.228 s in another, on a 2-vCPU Xeon whose two vCPUs slowed
down together.  A median over more runs does not remove a drift that lasts
longer than the run.  So a fixed reference kernel is timed between the
timed calls, and each call's time is scaled by how fast the kernel ran
around it:

    corrected = raw * REFERENCE_S / kernel_time

The kernel mixes what codoa's runs do (Python loops over small lists,
float arithmetic, small NumPy arrays and generator draws) and calls no
codoa code, so a change to codoa cannot move it.  On the machine above the
ratio of a booth run to the kernel stayed within a few percent while the
raw time drifted by tens of percent.  Raw times are reported alongside.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

# Median kernel time on an idle 2-vCPU Intel Xeon (Python 3.11, NumPy 2.4):
# corrected timings read as seconds on that machine when idle.
REFERENCE_S = 0.003
KERNEL_REPEATS = 3


def reference_kernel() -> float:
    """Fixed work resembling one swarm iteration, repeated 60 times."""
    gen = np.random.default_rng(12345)
    total = 0.0
    items = [[float(i), 0.5, 0] for i in range(50)]
    for _ in range(60):
        draws = gen.random(50)
        for item, u in zip(items, draws):
            item[1] = min(max(item[1] + u * item[1], 1e-6), 10.0)
            item[2] += 1 if u < 0.5 else -1
        rates = np.array([item[1] for item in items])
        total += math.fsum(rates * draws) + float(gen.random())
    return total


def speed_factor() -> float:
    """REFERENCE_S over the kernel's median time now; below 1 on a slow machine."""
    times = []
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return REFERENCE_S / statistics.median(times)


@dataclass(frozen=True)
class Timed:
    """Start and end (``time.perf_counter``) of one timed call."""

    start: float
    end: float

    @property
    def raw(self) -> float:
        return self.end - self.start


class Clock:
    """Times calls; corrects their durations for the machine's speed.

    A speed mark (``speed_factor``) is taken when the clock is made and
    after every timed call.  One mark is a noisy reading of a speed that
    also drifts, so a call's factor is the median of the marks taken
    within ``WINDOW_S`` seconds of it, which always includes the marks on
    both sides of it.
    """

    WINDOW_S = 3.0

    def __init__(self) -> None:
        self.marks: list[tuple[float, float]] = []  # (time, factor)
        self._mark()

    def _mark(self) -> None:
        self.marks.append((time.perf_counter(), speed_factor()))

    def time(self, fn, *args, **kwargs):
        """Return ``(result, Timed)`` for one call of ``fn``."""
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        timed = Timed(start, time.perf_counter())
        self._mark()
        return result, timed

    def factor(self, timed: Timed) -> float:
        """Speed factor for a call; its corrected duration is ``raw * factor``."""
        lo, hi = timed.start - self.WINDOW_S, timed.end + self.WINDOW_S
        return statistics.median(f for t, f in self.marks if lo <= t <= hi)

    def corrected(self, timed: Timed) -> float:
        return timed.raw * self.factor(timed)
