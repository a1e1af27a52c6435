"""Dense exact polynomials and the 2x2 polynomial matrices."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from rii import GaussianRational, Poly, PolyMatrix2
from rii.poly import norm1, packed, rounded_ratio, unpacked
from rii.sequences import _ShiftAdd


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


# --- the canonical integer form ---------------------------------------------
#
# The reference below is the dense algorithm Poly used when it stored a tuple
# of Fractions: coefficientwise sums and a double loop of Fraction products.

def _trim(cs):
    cs = [c if isinstance(c, GaussianRational) else Fraction(c) for c in cs]
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _ref_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for j, c in enumerate(b):
        out[j] = out[j] + c
    return _trim(out)


def _ref_scale(c, a):
    return _trim([c * x for x in a])


def _ref_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _trim(out)


def _ref_pow(a, n):
    out = (Fraction(1),)
    for _ in range(n):
        out = _ref_mul(out, a)
    return out


def _ref_derivative(a):
    return _trim([j * c for j, c in enumerate(a)][1:])


def _assert_canonical(p):
    nums, den = p._nums, p._den
    assert type(nums) is tuple and all(type(a) is int for a in nums)
    assert not nums or nums[-1] != 0
    assert type(den) is int and den > 0
    assert math.gcd(den, *nums) == 1


def _assert_matches(p, want):
    _assert_canonical(p)
    assert p.coeffs == want
    assert all(type(c) is Fraction for c in p.coeffs)
    assert p.degree == len(want) - 1 and p.is_zero() == (not want)
    assert p.leading() == (want[-1] if want else 0)
    for j in range(-1, len(want) + 2):
        assert p[j] == (want[j] if 0 <= j < len(want) else 0)
    again = Poly(want)
    assert p == again and hash(p) == hash(again)


_small_coeffs = st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=12),
                         max_size=6)
_scalars = st.one_of(st.integers(-6, 6),
                     st.fractions(min_value=-6, max_value=6, max_denominator=9))


@given(_small_coeffs, _small_coeffs, _scalars, st.integers(0, 4))
def test_operations_match_fraction_reference(a, b, c, n):
    p, q = Poly(a), Poly(b)
    ra, rb = _trim(a), _trim(b)
    rc = Fraction(c)
    _assert_matches(p, ra)
    _assert_matches(p + q, _ref_add(ra, rb))
    _assert_matches(p - q, _ref_add(ra, _ref_scale(-1, rb)))
    _assert_matches(-p, _ref_scale(-1, ra))
    _assert_matches(p * q, _ref_mul(ra, rb))
    _assert_matches(c * p, _ref_scale(rc, ra))
    _assert_matches(p * c, _ref_scale(rc, ra))
    _assert_matches(p + c, _ref_add(ra, (rc,)))
    _assert_matches(c - p, _ref_add((rc,), _ref_scale(-1, ra)))
    _assert_matches(p ** n, _ref_pow(ra, n))
    _assert_matches(p.derivative(), _ref_derivative(ra))
    assert (p == q) == (ra == rb)


@given(_small_coeffs, _small_coeffs,
       st.fractions(min_value=-6, max_value=6, max_denominator=9).filter(bool))
def test_equal_polynomials_by_different_routes_hash_equal(a, b, c):
    p, q = Poly(a), Poly(b)
    routes = [(p + q) - q, (p * c) * (1 / c), p * Poly.one() + Poly.zero(),
              -(-p), Poly(list(a) + [0, Fraction(0)]), Poly(p.coeffs)]
    for route in routes:
        _assert_canonical(route)
        assert route == p and hash(route) == hash(p)
    assert (p - p) == Poly.zero() and hash(p - p) == hash(Poly.zero())
    assert (p * q) * c == p * (q * c) == (c * p) * q


def test_canonical_form_reduces_common_factors():
    half = Poly((Fraction(1, 2), Fraction(1, 2)))
    assert (half._nums, half._den) == ((1, 1), 2)
    doubled = half + half
    assert (doubled._nums, doubled._den) == ((1, 1), 1)
    assert Poly.zero()._nums == () and Poly.zero()._den == 1
    sixths = Poly((Fraction(1, 2), Fraction(1, 3))) * 6
    assert sixths == Poly((3, 2)) and sixths._den == 1


def test_gaussian_and_mixed_products():
    i = GaussianRational.i()
    rational = Poly((Fraction(1, 2), 1))                 # x + 1/2
    gaussian = Poly((-i, 1))                             # x - i
    mixed = rational * gaussian
    assert mixed._den is None
    assert mixed.coeffs == _ref_mul(rational.coeffs, gaussian.coeffs)
    assert gaussian * rational == mixed and hash(gaussian * rational) == hash(mixed)
    assert (i * rational).coeffs == (i * Fraction(1, 2), i)
    # imaginary parts that cancel bring the product back to the integer form
    real = gaussian * Poly((i, 1)) * rational
    _assert_canonical(real)
    assert real == Poly((1, 0, 1)) * rational
    assert (mixed - mixed).is_zero() and (mixed - mixed)._den == 1
    assert mixed + rational == Poly(_ref_add(mixed.coeffs, rational.coeffs))
    assert mixed.derivative() == Poly(_ref_derivative(mixed.coeffs))
    assert mixed(Fraction(2)) == GaussianRational(5, -Fraction(5, 2))
    assert mixed.leading() == 1 and mixed[0] == -i * Fraction(1, 2)


_digits = st.lists(st.integers(-2 ** 15, 2 ** 15 - 1), max_size=6)


@example([-2 ** 15, 2 ** 15 - 1, -1, 0, 1], [2 ** 15 - 1, -2 ** 15])
@given(_digits, _digits)
def test_packed_arithmetic_unpacks_exactly(a, b):
    # 16 bits hold every coefficient in [-2^15, 2^15), the ends included; a
    # product packed at 48 bits has coefficients below 6 * 2^30 < 2^47
    p, q = Poly(a), Poly(b)
    assert unpacked(packed(a, 16), 16, len(a), 1) == p
    assert unpacked(packed(a, 16), 16, len(a) + 2, 6) == p * Fraction(1, 6)
    product = unpacked(packed(a, 48) * packed(b, 48) - packed(b, 48), 48, len(a) + len(b), 1)
    assert product == p * q - q
    # the families' shift-and-add step is the product by the packed step
    assert _ShiftAdd(a, 48) * packed(b, 48) == packed(a, 48) * packed(b, 48)
    assert _ShiftAdd(a, 16) * 1 == packed(a, 16)
    assert norm1(p) == sum(abs(c) for c in a)


_int_polys = st.lists(st.integers(-2 ** 80, 2 ** 80), min_size=1, max_size=25).filter(
    lambda a: a[-1] != 0)


@given(_int_polys, _int_polys, st.integers(1, 2 ** 40), st.floats(-3, 3),
       st.fractions(max_denominator=10 ** 6))
@example([1], [0, 1], 1, 2.225073858507e-311, Fraction(1))     # 1/x overflows
def test_rounded_ratio_is_the_exact_quotient_rounded_once(top, bottom, den, x, scale):
    top, bottom = Poly.from_integers(top, den), Poly.from_integers(bottom, 3)
    b = Fraction(*bottom.ratio_at(x))
    if b == 0:
        with pytest.raises(ZeroDivisionError):
            rounded_ratio(scale, top, bottom, x)
        return
    value = scale * Fraction(*top.ratio_at(x)) / b
    try:
        exact = float(value)
    except OverflowError:   # beyond the float range, the rounding is +-inf
        exact = math.inf if value > 0 else -math.inf
    assert float.hex(rounded_ratio(scale, top, bottom, x)) == float.hex(exact)
    # a bottom enclosure handed in gives the same value
    box = bottom.enclose(x)
    assert float.hex(rounded_ratio(scale, top, bottom, x, box)) == float.hex(exact)


def _box_at(num, den, outer):
    """An enclosure (lo, hi, den') of num/den (den > 0) with ends v and
    v (1 + 2^-20): num/den is the end of larger magnitude when outer, else
    the smaller."""
    lo, hi = sorted((num << 20, num * ((1 << 20) + 1)))
    return lo, hi, den * ((1 << 20) + outer)


@pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_rounded_ratio_holds_on_any_enclosures(monkeypatch, signs):
    # with the top's value at its outer end and the bottom's at its inner end
    # (or the reverse) the ratio is an extreme corner; both other corners are
    # the ratio moved by 2^-20, so they round alike, and elsewhere: only the
    # two extreme corners prove the rounding
    top, bottom = Poly((1, 3, 0, -2)) * signs[0], Poly((5, 0, 1)) * signs[1]
    for x in (0.3, 1.7, -2.25, 11.0):
        (tn, td), (bn, bd) = top.ratio_at(x), bottom.ratio_at(x)
        exact = float(Fraction(3 * tn * bd, td * bn))
        for top_outer in (False, True):
            box = _box_at(tn, td, top_outer)
            monkeypatch.setattr(Poly, "enclose", lambda self, z, _box=box: _box)
            for bottom_outer in (False, True):
                assert rounded_ratio(3, top, bottom, x, _box_at(bn, bd, bottom_outer)) == exact


def test_rounded_ratio_refuses_a_vanishing_bottom():
    x = 0.375
    for degree in (1, 14):
        bottom = Poly((-Fraction(x), 1)) * Poly((1,) * degree)
        with pytest.raises(ZeroDivisionError):
            rounded_ratio(1, Poly((1,) * 20), bottom, x)
