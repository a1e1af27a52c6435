"""Correction of command times for the machine's speed at the moment.

On a shared host the same command can take 50% longer from one minute to
the next.  To keep runs comparable, the benchmark times a fixed reference
kernel between commands (at least every `INTERVAL_S` of command time, and
before and after every pass).  Each command's time is scaled by
`REFERENCE_S` over the mean kernel time just before and just after it.

The kernel is stdlib-only `fractions.Fraction` arithmetic: Horner evaluation
of a fixed polynomial at points with large denominators, then a chain of
operations on small rationals.  This is the kind of Python-level rational
arithmetic that dominates `rii`, but it shares no code with the package, so
no change to `rii` can move it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.04   # nominal kernel time: corrected times are in these seconds
INTERVAL_S = 0.5

_rng = random.Random(20230423)
# big rationals, as in high-degree families and density sampling
_COEFFS = [Fraction(_rng.randint(-10 ** 6, 10 ** 6), _rng.randint(1, 10 ** 4))
           for _ in range(80)]
_POINTS = [Fraction(_rng.randint(-10 ** 9, 10 ** 9), 2 ** 40) for _ in range(25)]
# small rationals, as in the identity suites
_SMALL = [Fraction(_rng.choice((-1, 1)) * _rng.randint(1, 9), _rng.randint(1, 7))
          for _ in range(200)]


def kernel():
    """Seconds one run of the reference kernel takes now."""
    start = perf_counter()
    for x in _POINTS:
        acc = Fraction(0)
        for c in reversed(_COEFFS):
            acc = acc * x + c
    for _ in range(10):
        acc = Fraction(0)
        for a, b in zip(_SMALL, _SMALL[1:]):
            acc = acc * Fraction(1, 3) + a * b - a / b
    return perf_counter() - start


class Calibrator:
    """Assigns each timed item a speed factor from the kernels around it."""

    def __init__(self):
        self.kernels = []
        self._pending = []       # items timed since the last kernel
        self._since = 0.0

    def sample(self):
        seconds = kernel()
        if self.kernels:
            scale = REFERENCE_S / ((self.kernels[-1] + seconds) / 2)
            for item in self._pending:
                item.scale = scale
        self.kernels.append(seconds)
        self._pending = []
        self._since = 0.0

    def timed(self, item):
        """Register an item with a `seconds` attribute; it gets `.scale` later."""
        self._pending.append(item)
        self._since += item.seconds
        if self._since >= INTERVAL_S:
            self.sample()
