"""Host speed calibration for the end-to-end timings.

On a shared host, other tenants slow this process down by up to 2x, in
bursts from a fraction of a second to minutes long.  Measured on chain-500
``build`` calls, the median call time of 10-second windows varied by 26%
(interquartile range over median), and the median of whole 40-second runs
by 20-35%.

A fixed stdlib-only loop (exact fractions, dictionaries, string
formatting: the same kind of interpreter work as futsbench) slows down by
the same factor at the same moments; the ratio of call time to loop time
varied by 2% over the same windows.  So while untraced calls run, a timer
signal runs the loop every ``EVERY_S`` seconds, and each call's wall time
(less the time the samples took) is reported scaled by ``REFERENCE_S``
over the median loop time during and just before the call: the seconds
the call takes when the loop runs at its unloaded speed.  The loop never
touches futsbench, so a change to the program moves the scaled time as it
moves the wall time.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter
from typing import Callable, List, Tuple, TypeVar

T = TypeVar("T")

# The loop's time on the unloaded host where the seed numbers were taken
# (2 vCPU container, Python 3.11); it fixes the scale of the reported
# seconds, not their ratios.
REFERENCE_S = 0.0023
EVERY_S = 0.1
RECENT = 5  # samples before a call that still describe its host speed


def sample() -> float:
    """Seconds for one run of the calibration loop."""
    start = perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 1000):
        acc += Fraction(i % 7 + 1, i % 5 + 1)
        table[f"k{i % 97}"] = (acc, str(i))
    return perf_counter() - start


class HostSpeed:
    """Calibration samples from a timer signal, and the scaling they give.

    Use as a context manager around the measured calls; ``measure`` times
    one call.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.stolen = 0.0  # seconds the signal handler took from the caller
        self._previous = signal.SIG_DFL

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append(sample())
        self.stolen += perf_counter() - start

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, call: Callable[[], T]) -> Tuple[T, float, float]:
        """(result, wall seconds, scale) of one call: scaled seconds are
        wall seconds times scale.

        The wall time excludes the handler's own time.  With no sample yet,
        one is taken before the call.
        """
        if not self.samples:
            self.samples.append(sample())
        first, stolen = len(self.samples), self.stolen
        start = perf_counter()
        result = call()
        wall = perf_counter() - start - (self.stolen - stolen)
        loop = statistics.median(self.samples[max(0, first - RECENT) :])
        return result, wall, REFERENCE_S / loop
