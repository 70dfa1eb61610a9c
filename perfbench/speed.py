"""Timing at reference speed: takes the machine's speed drift out of wall times.

On a shared machine the same pure-Python work can take twice as long from one
second to the next, so single wall times (and even medians of a few) wander
between runs.  ``SpeedProbe`` samples the current speed while the benchmark
runs: a SIGALRM every ``EVERY_S`` runs a fixed Fraction kernel, shaped like
gonil's hot path, and records when it ran and how long it took.

An interval's work time is its wall time minus the probes that ran inside it.
Its time at reference speed is the work time scaled by ``NOMINAL_S`` over the
mean probe time around the interval (the probes inside it, or at least the
``MIN_PROBES`` nearest).  On a core where the probe takes ``NOMINAL_S`` the two
agree; the raw wall times are reported beside the scaled ones.
"""

from __future__ import annotations

import bisect
import signal
import time
from dataclasses import dataclass
from fractions import Fraction

# The core flips between a fast and a slow state (about 1.6x apart) on time
# scales from milliseconds to a second, so many short probes estimate the
# share of time spent slow better than a few long ones.
EVERY_S = 0.02
NOMINAL_S = 0.00045  # the probe's mean time on the 2-core machine the bounds were set on
MIN_PROBES = 10


def probe_kernel() -> Fraction:
    """Fixed work: Fraction dot products of length 12, as in ``Matrix @ vector``."""
    row = tuple(Fraction(i % 7 - 3, i % 5 + 1) for i in range(12))
    acc = Fraction(0)
    for k in range(8):
        vec = tuple(Fraction(k % 11 - 5 + j, j + 1) for j in range(12))
        acc += sum((a * b for a, b in zip(row, vec)), Fraction(0))
    return acc


@dataclass(frozen=True)
class Interval:
    start: float
    end: float
    work: float  # wall time minus the probes that ran inside


class SpeedProbe:
    """Samples the speed of this process's core on a timer while started."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.probe_total = 0.0

    def _sample(self, signum, frame) -> None:
        t = time.perf_counter()
        probe_kernel()
        d = time.perf_counter() - t
        self.starts.append(t)
        self.durations.append(d)
        self.probe_total += d

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        while len(self.starts) < MIN_PROBES:  # a very short run still gets a speed
            self._sample(None, None)

    def time(self, fn):
        """Run fn() and return its result with the Interval it took."""
        t, probes = time.perf_counter(), self.probe_total
        try:
            result = fn()
        finally:
            end = time.perf_counter()
            interval = Interval(t, end, end - t - (self.probe_total - probes))
        return result, interval

    def speed(self, start: float, end: float) -> float:
        """Mean probe time around [start, end]: the probes inside, or the nearest few."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        if hi - lo < MIN_PROBES:
            mid = (start + end) / 2
            centre = bisect.bisect_left(self.starts, mid)
            lo = max(0, min(centre - MIN_PROBES // 2, len(self.starts) - MIN_PROBES))
            hi = min(len(self.starts), lo + MIN_PROBES)
        window = self.durations[lo:hi]
        return sum(window) / len(window)

    def scaled(self, interval: Interval) -> float:
        """The interval's work time at reference speed; call after ``stop``."""
        return interval.work * NOMINAL_S / self.speed(interval.start, interval.end)
