"""Reference seconds: measured time corrected for the speed of this core.

On a shared virtual machine the speed of the core a process runs on can
change by up to 2x within seconds, with no steal time and with CPU time
moving in step with wall time, so neither CPU time nor longer runs remove
it.  While a probe is active, a timer signal interrupts this thread every
INTERVAL seconds and runs a fixed pure-Python kernel of exact rational
arithmetic (the same kind of work as the library, but none of its code),
recording how long it took.

``ref_seconds(start, end)`` is the wall time of an interval minus the probe
bursts inside it, scaled by the probe speed measured during the interval
(the nearest burst when none fell inside) over REF_SPEED.  It estimates how
long the interval would have taken on a core that runs the kernel REF_SPEED
times a second.  It is what every time of the benchmark reports.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction
from typing import List, Tuple

INTERVAL = 0.02
REF_SPEED = 1000.0  # kernels per second of the reference core


def kernel() -> Fraction:
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i, i + 1)
    return total


class SpeedProbe:
    """Context manager that samples the core speed from a timer signal."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self._busy = [0.0]  # prefix sums of burst durations
        self._speed = [0.0]  # prefix sums of burst speeds
        self._ends: List[float] = []
        self._previous = None

    def _burst(self, *_args) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self._ends.append(end)
        self._busy.append(self._busy[-1] + (end - start))
        self._speed.append(self._speed[-1] + 1.0 / (end - start))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._burst)
        self._burst()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def split(self, start: float, end: float) -> Tuple[float, float]:
        """(seconds of [start, end] not spent in probe bursts, speed factor)."""
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_left(self.starts, end)
        busy = self._busy[j] - self._busy[i]
        if j > i:
            speed = (self._speed[j] - self._speed[i]) / (j - i)
        else:
            # No burst inside: the nearest one, before or after the interval.
            after = j < len(self.starts) and (
                i == 0 or self.starts[j] - end < start - self._ends[i - 1]
            )
            k = j if after else i - 1
            speed = self._speed[k + 1] - self._speed[k]
        return end - start - busy, speed / REF_SPEED

    def ref_seconds(self, start: float, end: float) -> float:
        work, factor = self.split(start, end)
        return work * factor
