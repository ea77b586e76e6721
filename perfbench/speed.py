"""Machine-speed reference for normalizing timings.

On a shared machine the speed of one core can change by a third for tens
of seconds at a time, which is more than the regressions the benchmark
should catch. So a fixed slice of benchmark-owned pure-Python work (integer
and ``Fraction`` arithmetic with small allocations, the same kinds of work
entrolab does) is timed every ``INTERVAL_S`` seconds, interrupting the
program from a timer signal, and every time the benchmark reports is
scaled by ``REF_NOMINAL_S`` over the slice's mean time while it ran: the
seconds it would have taken on a machine where the slice takes
``REF_NOMINAL_S``. The time spent in the slice itself is left out of every
measurement.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from statistics import fmean
from time import perf_counter

# about the slice's time at full speed on the 2-vCPU Xeon VM the bounds were set on
REF_NOMINAL_S = 0.003
INTERVAL_S = 0.1


def reference_seconds() -> float:
    """Time one fixed slice of reference work."""
    start = perf_counter()
    acc = 0
    for k in range(20_000):
        acc += k * k
    x = Fraction(1, 3)
    keep = []
    for k in range(300):
        x = x * Fraction(7, 5) - Fraction(k, 11)
        if x.denominator.bit_length() > 256:
            x = Fraction(1, 3)
        keep.append((x, {k: acc}))
    return perf_counter() - start


class SpeedSampler:
    """Samples the reference slice from SIGALRM and keeps a clock that
    leaves the sampling out."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (clock(), slice seconds)
        self._stolen = 0.0

    def clock(self) -> float:
        """perf_counter() minus the time spent sampling."""
        return perf_counter() - self._stolen

    def sample(self, *_signal_args) -> None:
        start = perf_counter()
        self.samples.append((start - self._stolen, reference_seconds()))
        self._stolen += perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.sample()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def scaled(self, start: float, end: float) -> float:
        """The clock interval [start, end] in reference-speed seconds, from
        the samples inside it and the nearest one on each side."""
        before = [ref for t, ref in self.samples if t <= start][-1:]
        inside = [ref for t, ref in self.samples if start < t < end]
        after = [ref for t, ref in self.samples if t >= end][:1]
        return (end - start) * REF_NOMINAL_S / fmean(before + inside + after)
