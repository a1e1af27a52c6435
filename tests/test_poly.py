"""Dense exact polynomials and the 2x2 polynomial matrices."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rii import GaussianRational, Poly, PolyMatrix2


def test_construction_strips_leading_zeros():
    assert Poly((1, 2, 0, 0)).coeffs == (Fraction(1), Fraction(2))
    assert Poly(()).is_zero()
    assert Poly((0, 0)).is_zero()
    assert Poly.zero().degree == -1
    assert Poly.one().degree == 0
    assert Poly.x().degree == 1


def test_arithmetic_and_calls():
    p = Poly((1, 2, 3))            # 1 + 2x + 3x^2
    q = Poly((0, 1))               # x
    assert (p + q)(Fraction(2)) == p(Fraction(2)) + Fraction(2)
    assert (p * q).degree == 3
    assert (p - p).is_zero()
    assert (2 * p)(1) == 12
    assert (p * Fraction(1, 3)).coeffs == (Fraction(1, 3), Fraction(2, 3), 1)
    assert (q ** 3).coeffs == (0, 0, 0, 1)
    assert p(Fraction(1, 2)) == Fraction(1) + 1 + Fraction(3, 4)


def test_derivative_and_leading():
    p = Poly((5, 0, Fraction(3, 2)))
    assert p.derivative().coeffs == (0, 3)
    assert p.leading() == Fraction(3, 2)
    assert Poly.zero().derivative().is_zero()


def test_float_coeffs():
    q = Poly((Fraction(1, 2), Fraction(2)))
    assert list(q.float_coeffs()) == [0.5, 2.0]


def test_gaussian_coefficients_multiply_out():
    i = GaussianRational.i()
    p = Poly((-i, 1)) * Poly((i, 1))     # (x - i)(x + i) = x^2 + 1
    assert p == Poly((1, 0, 1))


coeffs = st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=5),
                  min_size=0, max_size=5)


@given(coeffs, coeffs, coeffs)
def test_poly_ring_laws(a, b, c):
    p, q, r = Poly(a), Poly(b), Poly(c)
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)
    assert p + q == q + p
    assert p * q == q * p


@given(coeffs, st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_evaluation_is_a_ring_hom(a, x):
    p = Poly(a)
    q = Poly((1, 0, 2))
    assert (p * q)(x) == p(x) * q(x)
    assert (p + q)(x) == p(x) + q(x)


def test_polymatrix_algebra():
    a = PolyMatrix2(Poly((1, 1)), Poly((0, 2)), Poly.one(), Poly.zero())
    b = PolyMatrix2(Poly.x(), Poly.one(), Poly.zero(), Poly.one())
    prod = a @ b
    assert prod.a11 == Poly((1, 1)) * Poly.x()
    assert a.det() == Poly((1, 1)) * Poly.zero() - Poly((0, 2)) * Poly.one()
    assert (a - a).is_zero()
    assert a.transpose().transpose() == a


def test_adjugate_vs_cofactor():
    a = PolyMatrix2(Poly((1, 1)), Poly((0, 2)), Poly.one(), Poly((3,)))
    ident = a @ a.adjugate()
    det = a.det()
    assert ident.a11 == det and ident.a22 == det
    assert ident.a12.is_zero() and ident.a21.is_zero()
    assert a.cofactor_matrix() == a.adjugate().transpose()


def test_eval_at_produces_scalar_matrix():
    a = PolyMatrix2(Poly((0, 1)), Poly.one(), Poly.zero(), Poly((2,)))
    m = a.eval_at(Fraction(3))
    assert m == ((Fraction(3), Fraction(1)), (Fraction(0), Fraction(2)))


# --- exact evaluation on integers -------------------------------------------

def _horner(coeffs, z):
    """Reference: generic Horner over Fractions."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _float_or_overflow(compute):
    try:
        return repr(compute())
    except OverflowError:
        return OverflowError


_EDGE_POINTS = (0, 0.0, -0.0, 1, -3, 5e-324, -5e-324, 1e300, -1e300, 0.1, -2.5)
_coeff_lists = st.lists(st.fractions(max_denominator=10 ** 6), max_size=9)
_exact_points = st.one_of(st.integers(-10 ** 6, 10 ** 6), st.fractions(),
                          st.sampled_from([0, -1, Fraction(-7, 3)]))
_float_points = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from(_EDGE_POINTS))


@given(_coeff_lists, st.one_of(_exact_points, _float_points))
def test_ratio_at_is_exact(coeffs, z):
    num, den = Poly(coeffs).ratio_at(z)
    assert den > 0
    assert Fraction(num, den) == _horner(coeffs, Fraction(z))


@given(_coeff_lists, _exact_points)
def test_call_matches_generic_horner(coeffs, z):
    value = Poly(coeffs)(z)
    assert type(value) is Fraction
    assert value == _horner(coeffs, Fraction(z))


@given(_coeff_lists, _float_points)
def test_ratio_at_rounds_like_float_of_fraction(coeffs, x):
    num, den = Poly(coeffs).ratio_at(x)
    # bit for bit, including the sign of zero and the overflow of huge values
    assert _float_or_overflow(lambda: num / den) == \
        _float_or_overflow(lambda: float(_horner(coeffs, Fraction(x))))


def test_ratio_at_edges():
    assert Poly.zero().ratio_at(1e300) == (0, 1)
    assert Poly.zero()(7) == 0 and type(Poly.zero()(7)) is Fraction
    assert Poly.const(Fraction(-2, 3)).ratio_at(5e-324) == (-2, 3)
    p = Poly((Fraction(1, 2), 0, 3))           # 1/2 + 3x^2
    num, den = p.ratio_at(1e300)
    assert Fraction(num, den) == Fraction(1, 2) + 3 * Fraction(1e300) ** 2
    with pytest.raises(OverflowError):
        num / den
    with pytest.raises(OverflowError):
        float(_horner(p.coeffs, Fraction(1e300)))
    assert p.ratio_at(5e-324)[0] / p.ratio_at(5e-324)[1] == 0.5
    with pytest.raises(TypeError):
        Poly((GaussianRational(0, 1), 1)).ratio_at(1)
    with pytest.raises(TypeError):
        p.ratio_at(1j)
    # Gaussian coefficients keep generic Horner
    g = Poly((GaussianRational(0, 1), 1))
    assert g(Fraction(2)) == GaussianRational(2, 1)
