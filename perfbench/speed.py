"""The machine's speed while a run measures, for time metrics that do not
depend on it.

On a shared machine the same Python code runs up to about 1.8x slower in
some stretches than in others, and a stretch lasts seconds.  `SpeedProbe`
times a fixed pure-Python loop (`calibration`) every `INTERVAL_S` seconds of
wall time, from a SIGALRM handler in the measuring thread itself, so it sees
the speed the program sees.  `SpeedProbe.seconds(start, end)` converts a wall
interval to reference seconds: the interval minus the probe's own time in
it, scaled by how much slower than `REFERENCE_S` the loop ran in it.

The loop uses only the standard library, so no change to `imcalc` changes
its time; a slower program still reads slower.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.02
# the calibration loop's time on a 2-vCPU Intel Xeon VM (CPython 3.11) in its
# fast state; reference seconds are seconds of that machine in that state
REFERENCE_S = 0.00021


def calibration() -> None:
    """Fixed work resembling the program's: rational arithmetic, tuple keys
    and dict updates."""
    acc: dict = {}
    for i in range(1, 40):
        key = (i % 5, i % 3)
        acc[key] = acc.get(key, 0) + Fraction(i, 7) * Fraction(3, i + 2)
    x = 0
    for i in range(400):
        x += i * i % 7


class SpeedProbe:
    """Samples the calibration loop's time while installed."""

    def __init__(self):
        self.starts: list = []     # perf_counter at each sample's start
        self.loop_s: list = []     # the calibration loop's time at that sample
        self.busy: list = [0.0]    # probe time spent up to the end of each sample
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        calibration()
        end = time.perf_counter()
        self.starts.append(start)
        self.loop_s.append(end - start)
        self.busy.append(self.busy[-1] + (end - start))

    def install(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _busy_at(self, t: float) -> float:
        """Probe time spent before `t` (outside a sample)."""
        return self.busy[bisect.bisect_right(self.starts, t)]

    def slowdown(self, start: float, end: float) -> float:
        """How much slower than `REFERENCE_S` the loop ran from start to end:
        the mean of its samples in the interval, weighted by speed, or the
        last sample before it when the interval holds none."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        if hi == lo:
            lo = max(lo - 1, 0)
            hi = lo + 1
        # each sample stands for the same stretch of wall time, so the work a
        # stretch is worth is proportional to the loop's speed, 1 / loop time
        speed = statistics.fmean(1 / s for s in self.loop_s[lo:hi])
        return 1 / (speed * REFERENCE_S)

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of the wall interval [start, end]."""
        own = (end - start) - (self._busy_at(end) - self._busy_at(start))
        return own / self.slowdown(start, end)
