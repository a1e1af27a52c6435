"""Float and complex points enter the exact layer exactly and leave rounded once."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rii import (CoefficientScheme, GaussianRational, Perturbation, PoleError, cauchy_scheme,
                 eval_recurrence_at, eval_sequence_at, gen_first_kind, spectral_gap)
from rii.cfrac import convergent, spectral_transform, tail_convergent
from rii.exact import exact_point, rounded
from rii.suites import random_perturbation, random_rational, random_scheme

LENGTH = 12


def _bits(value):
    """The exact bits and type of a float or complex value (so -0.0 != 0.0)."""
    if isinstance(value, complex):
        return complex, value.real.hex(), value.imag.hex()
    return type(value), value.hex()


def _gaussian_scheme(rng):
    """A general scheme whose nodes are Gaussian rationals, not conjugate pairs."""
    def node():
        return [random_rational(rng), random_rational(rng, nonzero=True)]

    rho = [random_rational(rng, nonzero=True) for _ in range(LENGTH)]
    c = [random_rational(rng) for _ in range(LENGTH)]
    lam = [random_rational(rng, low=1, high=6, positive=True) for _ in range(LENGTH)]
    return CoefficientScheme.general(rho, c, lam, [(node(), node()) for _ in range(LENGTH)])


def test_exact_point_and_rounded():
    assert exact_point(0.1) == Fraction(3602879701896397, 2 ** 55)
    assert exact_point(0.5 - 0.25j) == GaussianRational(Fraction(1, 2), Fraction(-1, 4))
    assert exact_point(2 + 0j) == 2 and isinstance(exact_point(2 + 0j), Fraction)
    third = Fraction(1, 3)
    assert exact_point(third) is third
    for bad in (math.inf, -math.inf, math.nan, complex(1, math.inf), complex(math.nan, 0)):
        with pytest.raises(ValueError):
            exact_point(bad)
    assert rounded(third, Fraction(1)) is third
    assert _bits(rounded(third, 0.5)) == _bits(1 / 3)
    assert _bits(rounded(GaussianRational(third, 0), 0.5)) == _bits(1 / 3)
    assert _bits(rounded(GaussianRational(third, 1), 0.5)) == _bits(complex(1 / 3, 1))
    assert _bits(rounded(third, 0.5j)) == _bits(complex(1 / 3, 0))


points = st.one_of(
    st.floats(-8, 8, allow_nan=False),
    st.complex_numbers(max_magnitude=8, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(("general", "special", "oprl", "gaussian")),
       n=st.integers(0, 7), z=points)
def test_float_and_complex_results_are_the_exact_value_rounded_once(seed, kind, n, z):
    rng = random.Random(seed)
    scheme = _gaussian_scheme(rng) if kind == "gaussian" else random_scheme(rng, LENGTH, kind)
    pert = random_perturbation(rng, n)
    x = exact_point(z)

    def same(got, exact):
        assert _bits(got) == _bits(rounded(exact, z))

    for family in ("first", "second"):
        same(eval_recurrence_at(scheme, pert, family, n, z),
             eval_recurrence_at(scheme, pert, family, n, x))
        for got, exact in zip(eval_sequence_at(scheme, pert, family, n, z, shift=1),
                              eval_sequence_at(scheme, pert, family, n, x, shift=1)):
            same(got, exact)
    same(scheme.weight_at(n + 1, z), scheme.weight_at(n + 1, x))
    same(gen_first_kind(scheme, pert, n)[n](z), gen_first_kind(scheme, pert, n)[n](x))
    kp = rng.randint(0, 2) - 1
    try:
        exact = tail_convergent(scheme, pert, kp, n, x)
    except PoleError:
        return   # a nested denominator vanishes at the point z stores
    same(tail_convergent(scheme, pert, kp, n, z), exact)


def test_complex_zero_no_longer_raises():
    assert _bits(convergent(cauchy_scheme(), None, 2, 0j)) == _bits(0j)
    gap = spectral_gap(cauchy_scheme(), Perturbation.corec(1, 1), 3, 3, 0j)
    assert gap == math.inf   # the plain depth-3 convergent has a pole at 0


def test_spectral_gap_is_the_exact_gap_rounded_once():
    # demo 02's deepest gap: both sides exact at the point z stores
    scheme, z = cauchy_scheme(), 0.7 + 0.6j
    x = exact_point(z)
    pert = Perturbation.corec(1, Fraction(1, 4))
    lhs = convergent(scheme, pert, 18, x)
    rhs = spectral_transform(scheme, pert).apply(convergent(scheme, None, 25, x), x)
    gap = spectral_gap(scheme, pert, 18, 25, z)
    assert gap == abs(complex(lhs - rhs)) == 1.0643845385383006e-06
