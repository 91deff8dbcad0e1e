"""Machine-speed calibration for the end-to-end times.

On a shared host the speed of the same Python code drifts by tens of
percent within seconds (neighbours' load, frequency changes).  That
drift has nothing to do with the program, yet it would dominate every
time this benchmark reports.  So a fixed reference kernel, pure Python
like the program, is timed from a wall-clock timer signal every
``INTERVAL_S`` while items run.  Each item's time, minus the time spent
in the signal handler, is divided by the median kernel time sampled
around it and multiplied by ``NOMINAL_KERNEL_S``: it reads as the time
the item would take on a host where the kernel takes exactly that long.

Measured here over 25-40 s of repeated rounds, this cut the
round-to-round variation (coefficient of variation) from 20% to 4% on
roundtrip-small, from 11% to 2% on bracket and from 5% to 3.5% on
census.  A change to the program does not touch the kernel, so a real
speed-up shows in full.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

#: the kernel's time on the nominal host; calibrated times are given
#: at this kernel speed
NOMINAL_KERNEL_S = 0.0015
INTERVAL_S = 0.05
#: kernel samples this far before and after an item count for it
WINDOW_S = 0.1


def kernel() -> int:
    """Fixed reference work: tuple-keyed dict updates and a sort."""
    counts: dict[tuple[int, int], int] = {}
    for i in range(1500):
        key = (i & 31, i >> 5)
        counts[key] = counts.get(key, 0) + 1
    return len(sorted(counts.items()))


def kernel_time(repeats: int = 15) -> float:
    """Median kernel time, measured directly."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Sampler:
    """Times the kernel from SIGALRM every ``INTERVAL_S`` of wall time."""

    def __init__(self):
        self.times: list[float] = []  # sample midpoints, increasing
        self.kernel_s: list[float] = []
        self.handler_s = 0.0  # total time spent in the handler
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.times.append((start + end) / 2)
        self.kernel_s.append(end - start)
        self.handler_s += end - start
        self._busy = False

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_KERNEL_S over the median kernel time sampled within
        ``WINDOW_S`` of the interval [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if hi <= lo:
            raise RuntimeError("no kernel sample near a timed item")
        return NOMINAL_KERNEL_S / statistics.median(self.kernel_s[lo:hi])
