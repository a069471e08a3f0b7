"""Calibration of times against the host's speed of the moment.

The machine this benchmark was written on changes speed by a third
within seconds, as other machines' work comes and goes on the same
cores, and every time measured on it moves with that speed. A fixed
slice of work moves the same way. The Sampler times such slices just
before and after a measured call and, from a timer signal, every
PERIOD_S during it; their mean over REFERENCE_S is the call's speed
factor, and the call's calibrated time is its own time (the slices
taken out) divided by that factor: the time it would take at the speed
where a slice takes REFERENCE_S.
"""
from __future__ import annotations

import signal
import time
from collections import Counter
from fractions import Fraction

REFERENCE_S = 0.0012   # a slice's time at this benchmark's nominal speed
PERIOD_S = 0.1
EDGE_SLICES = 3        # slices on each side of a call
_TEXT = "".join("abc"[(i * i + i // 3) % 3] for i in range(3000))


def reference() -> float:
    """Seconds taken by a fixed slice of work like the program's own:
    fraction and big-integer arithmetic, window slicing and counting."""
    t0 = time.perf_counter()
    x, acc = Fraction(355, 113), Fraction(0)
    for i in range(1, 120):
        acc = acc * Fraction(i, i + 1) + x
    n = acc.numerator * acc.denominator
    for _ in range(200):
        n = (n * 3 + 1) % (1 << 521)
    counts = Counter(_TEXT[i:i + 6] for i in range(len(_TEXT) - 5))
    for w in list(counts):
        counts[w[1:]] = counts.get(w[1:], 0) + 1
    return time.perf_counter() - t0


class Sampler:
    """Measure calls with reference slices around and inside them."""

    def __init__(self):
        self._inside = []
        self._before = [reference() for _ in range(EDGE_SLICES)]

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self._inside.append(reference())
        self._spent += time.perf_counter() - t0

    def measure(self, call):
        """(call's result, its seconds without the slices, speed factor)."""
        self._inside, self._spent = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = time.perf_counter()
        try:
            result = call()
        finally:
            seconds = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        after = [reference() for _ in range(EDGE_SLICES)]
        slices = self._before + self._inside + after
        self._before = after
        return result, seconds - self._spent, sum(slices) / len(slices) / REFERENCE_S
