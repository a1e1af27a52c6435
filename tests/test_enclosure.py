"""Fixed-point enclosures of rational polynomials at floats, and the exact fallback."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from rii import (GaussianRational, Perturbation, Poly, build_rule, cauchy_scheme,
                 eval_recurrence_at, gen_first_kind)
from rii.exact import quotient, rounded
from rii.poly import ENCLOSE_MIN_DEGREE, FRACTION_BITS


def _rounded_ratio(num, den):
    """Reference rounding of num/den: float(Fraction), +-inf past the float range."""
    try:
        return float(Fraction(num, den))
    except OverflowError:
        return math.inf if (num > 0) == (den > 0) else -math.inf


_nums = st.lists(st.integers(-2 ** 200, 2 ** 200), min_size=2, max_size=61).filter(
    lambda a: a[-1] != 0)
_points = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-4, 4, allow_nan=False),
    st.integers(-50, 50).map(float),
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 0.5, -1.0, 2.0, 1.5)),
)


def _check(poly, x):
    num, den = poly.ratio_at(x)
    box = poly.enclose(x)
    if poly.degree >= ENCLOSE_MIN_DEGREE and abs(x) <= 2:
        assert box is not None
    if box is not None:
        lo, hi, d = box
        assert d > 0 and lo * den <= num * d <= hi * den
    assert float.hex(poly(x)) == float.hex(_rounded_ratio(num, den))


@settings(max_examples=300, deadline=None)
@given(nums=_nums, den=st.integers(1, 2 ** 64), x=_points)
def test_enclosure_holds_and_call_rounds_exactly(nums, den, x):
    _check(Poly([Fraction(a, den) for a in nums]), x)


@settings(max_examples=200, deadline=None)
@given(nums=_nums, den=st.integers(1, 2 ** 64), root=st.floats(-3, 3, allow_nan=False),
       step=st.integers(-2, 2))
def test_call_next_to_an_exact_root(nums, den, root, step):
    # P has the float `root` as an exact zero; evaluate at it and at its neighbours
    poly = Poly([Fraction(a, den) for a in nums]) * Poly((-Fraction(root), 1))
    x = root
    for _ in range(abs(step)):
        x = math.nextafter(x, math.copysign(math.inf, step))
    _check(poly, x)


_wide_nums = st.lists(st.integers(-2 ** 4000, 2 ** 4000), min_size=ENCLOSE_MIN_DEGREE + 1,
                      max_size=25).filter(lambda a: a[-1] != 0)


# wide integers can exceed hypothesis's per-example data budget
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.data_too_large])
@given(nums=_wide_nums, den=st.integers(1, 2 ** 4000), x=_points)
# the unit is 1 (no shift) here, and floor(a/2) would take 386 bits, one more
# than a/2 itself
@example(nums=[0] * 11 + [-(2 ** 386 - 1)], den=2, x=0.5)
def test_wide_denominators_enclose_on_floored_coefficients(nums, den, x):
    poly = Poly.from_integers(nums, den)
    _check(poly, x)
    nums, den = poly._nums, poly.denominator
    if max(a.bit_length() for a in nums) > 2 * FRACTION_BITS:
        fixed, unit, truncated = poly._fixed
        assert truncated and unit & (unit - 1) == 0     # a power-of-two unit
        # each coefficient is truncated toward zero in that unit, which holds
        # the largest in 3*FRACTION_BITS + 1 bits unless it is coarser than 1
        for f, a in zip(fixed, nums):
            assert abs(f) * den <= abs(a) * unit < (abs(f) + 1) * den
            assert f == 0 or (f < 0) == (a < 0)
        top = max(a.bit_length() for a in nums) - den.bit_length() + 1
        assert max(f.bit_length() for f in fixed) <= max(3 * FRACTION_BITS + 1, top)


def test_a_wide_polynomial_is_floored_and_rounds_exactly():
    rng = random.Random(4000)
    den = rng.getrandbits(4000) | 1 << 3999 | 1
    poly = Poly.from_integers([rng.getrandbits(4000) - 2 ** 3999 for _ in range(30)], den)
    for x in (0.0, -0.0, 0.3, -1.25, 2.0, 7.5, -40.0, 5e-324):
        _check(poly, x)
    assert poly._fixed[2]


@pytest.mark.parametrize("n", [3, 13, 31, 61])
def test_worked_example_at_its_rational_zero(n):
    poly = gen_first_kind(cauchy_scheme(), None, n)[n]    # odd n: P_n(0) = 0 exactly
    for x in (0.0, -0.0, 5e-324, -5e-324, 1e-300):
        _check(poly, x)
    assert float.hex(poly(0.0)) == float.hex(0.0)


def test_enclosure_edges():
    assert Poly.zero().enclose(0.3) is None
    assert Poly((1,) * ENCLOSE_MIN_DEGREE).enclose(0.3) is None    # exact is as cheap
    wide = Poly.from_integers([1, 2 ** 300], 3)      # but not on wide numerators
    assert wide.enclose(0.3) is not None and wide(0.3) == quotient(*wide.ratio_at(0.3))
    p = Poly((Fraction(1, 3),) + (2,) * ENCLOSE_MIN_DEGREE + (-5,))
    assert p.enclose(0.3) is not None
    assert p.enclose(1e30) is None                # the error bound overflows
    assert p(1e300) == -math.inf and (p * Poly.x())(-1e300) == math.inf
    with pytest.raises(TypeError):
        Poly((GaussianRational(0, 1), 1)).enclose(0.5)


def test_values_beyond_the_float_range_round_to_infinity():
    assert eval_recurrence_at(cauchy_scheme(), None, "first", 200, 1e300) == math.inf
    value = eval_recurrence_at(cauchy_scheme(), None, "first", 200, complex(1e300, 1))
    assert value == complex(math.inf, math.inf)
    assert complex(GaussianRational(Fraction(-10 ** 400, 3), 1)) == complex(-math.inf, 1.0)
    assert eval_recurrence_at(cauchy_scheme(), None, "first", 201, -1e300) == -math.inf
    assert rounded(Fraction(-10 ** 400, 3), 0.5) == -math.inf
    assert quotient(10 ** 400, -1) == -math.inf
    assert float.hex(quotient(0, -3)) == float.hex(0.0)
    assert float.hex(quotient(-1, 10 ** 400)) == float.hex(-0.0)
    assert quotient(2 ** 1024 - 2 ** 970 - 1, 1) == 1.7976931348623157e308   # largest float
    assert quotient(2 ** 1024 - 2 ** 970, 1) == math.inf                     # ties to even


_SHAPES = (Perturbation.corec(3, Fraction(1, 100)),
           Perturbation.codil(4, Fraction(1036, 1000)),
           Perturbation.both(2, Fraction(1, 100), 6, Fraction(1004, 1000)))


@pytest.mark.parametrize("pert", _SHAPES, ids=("corec", "codil", "both"))
def test_rules_without_the_enclosure_are_identical(monkeypatch, pert):
    scheme = cauchy_scheme()
    high_degree_exact = []
    ratio_at = Poly.ratio_at

    def counted(self, z):
        if self.degree >= ENCLOSE_MIN_DEGREE:
            high_degree_exact.append(self.degree)
        return ratio_at(self, z)

    fixed_point = Poly._fixed_point
    floored = []

    def recorded(self):
        out = fixed_point(self)
        if out is not None:
            floored.append(out[2])
        return out

    monkeypatch.setattr(Poly, "ratio_at", counted)
    monkeypatch.setattr(Poly, "_fixed_point", recorded)
    rules = {n: build_rule(scheme, pert, n) for n in (10, 40, 80, 100)}
    # every polish and weight float of the ladder is proven by its enclosure,
    # on exact coefficients: no rule polynomial is wide enough to be floored
    assert high_degree_exact == []
    assert floored and not any(floored)
    monkeypatch.setattr(Poly, "enclose", lambda self, x: None)
    for n, rule in rules.items():
        exact = build_rule(scheme, pert, n)
        assert [float.hex(x) for x in exact.nodes] == [float.hex(x) for x in rule.nodes]
        assert [float.hex(w) for w in exact.weights] == [float.hex(w) for w in rule.weights]
    assert high_degree_exact
