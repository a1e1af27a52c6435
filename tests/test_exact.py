"""Exact scalar layer: rational coercion and Gaussian rationals."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rii import GaussianRational, format_rational, rational, simplify_scalar


def test_rational_accepts_the_usual_spellings():
    assert rational(3) == Fraction(3)
    assert rational("2/5") == Fraction(2, 5)
    assert rational("0.1") == Fraction(1, 10)  # exact decimal, not float(0.1)
    assert rational(Fraction(7, 4)) == Fraction(7, 4)
    assert rational(0.5) == Fraction(1, 2)


def test_rational_rejects_complex_and_junk():
    with pytest.raises(ValueError):
        rational(GaussianRational(1, 2))
    assert rational(GaussianRational(3, 0)) == Fraction(3)
    with pytest.raises(TypeError):
        rational(object())
    with pytest.raises(TypeError):    # a JSON true is not the number 1
        rational(True)


def test_format_rational():
    assert format_rational(Fraction(1, 3)) == "1/3"
    assert format_rational(Fraction(-4, 2)) == "-2"
    assert format_rational(5) == "5"


def test_gaussian_basics():
    i = GaussianRational.i()
    assert i * i == -1
    assert (i * i).simplify() == Fraction(-1)
    z = GaussianRational(Fraction(1, 2), Fraction(3, 4))
    assert z.norm() == Fraction(1, 4) + Fraction(9, 16)
    assert (z * GaussianRational(z.re, -z.im)).simplify() == z.norm()


def test_gaussian_division_and_reflected_ops():
    z = GaussianRational(1, 2)
    w = GaussianRational(3, -1)
    assert (z / w) * w == z
    assert 1 + z == GaussianRational(2, 2)
    assert 2 * z == GaussianRational(2, 4)
    assert Fraction(1, 2) - z == GaussianRational(Fraction(-1, 2), -2)
    assert (6 / GaussianRational(1, 1)) == GaussianRational(3, -3)


small = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@given(small, small, small, small, small, small)
def test_gaussian_ring_laws(a, b, c, d, e, f):
    x = GaussianRational(a, b)
    y = GaussianRational(c, d)
    z = GaussianRational(e, f)
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x
    assert x * y == y * x


def test_simplify_scalar_normalizes_real_gaussians():
    assert simplify_scalar(GaussianRational(2, 0)) == Fraction(2)
    assert isinstance(simplify_scalar(GaussianRational(2, 0)), Fraction)
    keep = GaussianRational(2, 1)
    assert simplify_scalar(keep) is keep
    assert simplify_scalar(Fraction(1, 3)) == Fraction(1, 3)
