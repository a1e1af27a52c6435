"""The suites' draws are those of `random.Random.randint`.

`suites.random_rational` draws each randint itself (`suites._randint`);
these tests pin its draws and the generator state it leaves against
randint's own.  They use the standard library alone, so they also run
without pytest on any supported Python:

    PYTHONPATH=src python tests/test_draws.py
"""

import random
from fractions import Fraction

from rii.suites import _randint, random_rational

# every (low, high) the suites draw from, an empty-width one, a range of
# width 2^k and one just above, and a wide one
RANGES = [(-4, 4), (1, 4), (1, 6), (1, 8), (-6, 6), (1, 5), (-9, 9), (1, 7), (-5, 5),
          (0, 0), (3, 3), (-2, 1), (0, 8), (-10 ** 30, 10 ** 30)]

# the suites' random_rational calls: (low, high, max_den, nonzero, positive)
CALLS = [(-4, 4, 4, False, False), (-4, 4, 4, True, False), (1, 6, 4, False, True),
         (1, 4, 4, False, True), (1, 8, 4, False, True), (-6, 6, 5, False, False),
         (-9, 9, 7, False, False), (-5, 5, 5, False, False), (2, 2, 1, False, False)]

SEEDS = range(200)


def _randint_rational(rng, low, high, max_den, nonzero, positive):
    """random_rational as drawn by randint itself: the reference."""
    while True:
        p = rng.randint(low, high)
        q = rng.randint(1, max_den)
        if (positive and p <= 0) or (nonzero and p == 0):
            continue
        return Fraction(p, q)


def test_randint_draws_and_state_are_randints():
    for low, high in RANGES:
        for seed in SEEDS:
            ours, theirs = random.Random(seed), random.Random(seed)
            draws = [_randint(ours.getrandbits, low, high) for _ in range(12)]
            assert draws == [theirs.randint(low, high) for _ in range(12)], (low, high, seed)
            assert ours.getstate() == theirs.getstate(), (low, high, seed)


def test_random_rational_draws_and_state_are_randints():
    for args in CALLS:
        for seed in SEEDS:
            ours, theirs = random.Random(seed), random.Random(seed)
            draws = [random_rational(ours, *args) for _ in range(12)]
            assert draws == [_randint_rational(theirs, *args) for _ in range(12)], (args, seed)
            assert ours.getstate() == theirs.getstate(), (args, seed)


def test_an_empty_range_is_refused():
    for low, high, max_den in ((1, 0, 4), (0, 1, 0)):
        try:
            random_rational(random.Random(0), low, high, max_den)
        except ValueError:
            continue
        raise AssertionError("random_rational(%d, %d, %d) drew" % (low, high, max_den))


if __name__ == "__main__":
    import sys

    tests = [(name, test) for name, test in sorted(globals().items())
             if name.startswith("test_") and callable(test)]
    for name, test in tests:
        test()
        print("%s passed" % name)
    print("%d passed on Python %s" % (len(tests), sys.version.split()[0]))
