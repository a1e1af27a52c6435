"""Density approximation: Lagrange interpolant, natural spline, sampling."""

import math
import re
import warnings
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from rii import (
    Perturbation,
    Poly,
    build_rule,
    cauchy_density,
    cauchy_scheme,
    lagrange_density,
    sample_density,
    second_derivative_gaps,
    spline_density,
)
from rii.cli import main
from rii.density import EXTRAPOLATED
from rii.exact import quotient
from rii.poly import FRACTION_BITS


@pytest.fixture(scope="module")
def rule():
    return build_rule(cauchy_scheme(), None, 8)


@pytest.fixture(scope="module")
def perturbed_rule():
    # unperturbed weights are all equal, so their spline is a constant and
    # its slope system is never exercised; mu = 1/100 makes them differ
    return build_rule(cauchy_scheme(), Perturbation.corec(0, Fraction(1, 100)), 8)


def test_cauchy_density_values():
    assert abs(cauchy_density(0.0) - 1.0 / math.pi) < 1e-15
    assert abs(cauchy_density(1.0) - 1.0 / (2 * math.pi)) < 1e-15


def test_lagrange_interpolates_knots_exactly(rule):
    approx = lagrange_density(rule.nodes, rule.weights)
    assert approx.kind == "lagrange"
    for x, w in zip(rule.nodes, rule.weights):
        assert abs(approx(x) - w) < 1e-14
    assert approx.poly.degree <= len(rule.nodes) - 1


def test_lagrange_is_exact_on_polynomial_data():
    xs = [Fraction(i) for i in range(-3, 4)]
    ys = [x * x + 1 for x in xs]
    approx = lagrange_density(xs, ys)
    assert approx.poly.degree == 2
    assert approx(Fraction(5)) == 26


def test_duplicate_nodes_are_refused():
    with pytest.raises(ValueError):
        lagrange_density([0, 0, 1], [1, 2, 3])
    with pytest.raises(ValueError):
        spline_density([0, 1], [1, 2])   # a natural spline needs >= 3 knots


def test_spline_matches_knots_and_natural_bc(perturbed_rule):
    approx = spline_density(perturbed_rule.nodes, perturbed_rule.weights)
    assert approx.kind == "spline"
    for x, w in zip(perturbed_rule.nodes, perturbed_rule.weights):
        assert abs(approx(x) - w) < 1e-12
    assert len(set(perturbed_rule.weights)) > 1
    boundary, interior = second_derivative_gaps(approx)
    assert boundary < 1e-10          # natural ends: f'' = 0
    assert interior < 1e-10          # C^2 across interior knots


def test_flagging_outside_node_range(rule):
    approx = lagrange_density(rule.nodes, rule.weights)
    lo, hi = rule.nodes[0], rule.nodes[-1]
    assert approx.flag(lo - 1.0) == EXTRAPOLATED
    assert approx.flag(hi + 1.0) == EXTRAPOLATED
    assert approx.flag(0.5 * (lo + hi)) == ""


def test_sample_density_grid(rule):
    approx = spline_density(rule.nodes, rule.weights)
    samples = sample_density(approx, -4.0, 4.0, 21)
    assert len(samples) == 21
    assert samples[0][0] == -4.0 and samples[-1][0] == 4.0
    flags = {flag for _x, _v, flag in samples}
    assert EXTRAPOLATED in flags    # +-4 sits outside the 8-point node range
    with pytest.raises(ValueError):
        sample_density(approx, 0.0, 1.0, 1)


def test_spline_samples_are_its_scalar_calls(perturbed_rule):
    # every sample is the float a call at that x alone gives, extrapolated
    # ones too
    approx = spline_density(perturbed_rule.nodes, perturbed_rule.weights)
    samples = sample_density(approx, -40.0, 40.0, 401)
    assert [v for _x, v, _flag in samples] == [approx(x) for x, _v, _flag in samples]
    assert samples[-1][0] == 40.0 and samples[0][2] == EXTRAPOLATED


def _bits(values):
    return [float.hex(float(v)) for v in values]


def _assert_matches_scipy(xs, ys, points=()):
    """Every coefficient, every sample of a grid reaching three times the knot
    range past both ends, and the value at each knot and each of `points`,
    bit for bit against scipy's natural CubicSpline."""
    from scipy.interpolate import CubicSpline

    reference = CubicSpline(xs, ys, bc_type="natural")
    approx = spline_density(xs, ys)
    assert [_bits(c) for c in approx.cubics] == [_bits(c) for c in reference.c.T.tolist()]
    width = xs[-1] - xs[0]
    grid = sample_density(approx, xs[0] - 3 * width, xs[-1] + 3 * width, 61)
    grid_xs = [x for x, _v, _flag in grid]
    assert _bits(v for _x, v, _flag in grid) == _bits(reference(grid_xs).tolist())
    others = list(xs) + list(points)
    assert _bits(map(approx, others)) == _bits(reference(others).tolist())


@st.composite
def _knot_sets(draw):
    """3-40 strictly increasing knots whose spacings run from 1e-3 to 1e3,
    so adjacent spacing ratios reach 1e-6 and 1e6 and dgtsv's row interchange
    runs, with values of magnitude 1e-5 to 1e5 of either sign."""
    n = draw(st.integers(3, 40))
    exponents = st.floats(-3, 3)
    xs = [draw(st.floats(-100, 100))]
    for _ in range(n - 1):
        xs.append(xs[-1] + 10.0 ** draw(exponents))
    ys = [draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(st.floats(-5, 5))
          for _ in range(n)]
    return xs, ys


@settings(max_examples=300, deadline=None)
@given(knots=_knot_sets(), data=st.data())
def test_spline_is_scipys_natural_cubic_spline_bit_for_bit(knots, data):
    xs, ys = knots
    width = xs[-1] - xs[0]
    points = data.draw(st.lists(st.floats(xs[0] - 3 * width, xs[-1] + 3 * width),
                                max_size=20))
    _assert_matches_scipy(xs, ys, points + [math.nan])


@pytest.mark.parametrize("pert", [Perturbation.corec(0, Fraction(1, 100)),
                                  Perturbation.corec(0, Fraction(-1, 100)),
                                  Perturbation.codil(2, Fraction(98, 100))],
                         ids=["mu", "minus-mu", "codilation"])
def test_spline_on_rule_knots_is_scipys_bit_for_bit(pert):
    for n in range(3, 41):
        rule = build_rule(cauchy_scheme(), pert, n)
        midpoints = [0.5 * (a + b) for a, b in zip(rule.nodes, rule.nodes[1:])]
        _assert_matches_scipy(list(rule.nodes), list(rule.weights), midpoints)


_REFUSED_KNOTS = [
    # h^2 overflows a float, so the natural ends' -0.5 * 0 * h^2 is nan
    ([0.0, 1e155, 2e155], "not finite"),
    # the knot range 2 (h_0 + h_1) overflows a float
    ([-1.7e308, 0.0, 1.7e308], "not finite"),
    # elimination meets an exactly zero pivot
    ([0.0, 1e-300, 1e300], "singular"),
    # distinct Fractions, one float
    ([0, 1, 1 + Fraction(1, 10 ** 30)], "same float"),
]


@pytest.mark.parametrize("nodes, message", _REFUSED_KNOTS)
def test_the_knots_scipy_refuses_raise_value_error_silently(capfd, nodes, message):
    import numpy as np
    from scipy.interpolate import CubicSpline

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            spline_density(nodes, [1.0, 2.0, 3.0])
    with np.errstate(all="ignore"), pytest.raises(ValueError):
        CubicSpline([float(x) for x in nodes], [1.0, 2.0, 3.0], bc_type="natural")
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("nodes, message", _REFUSED_KNOTS)
def test_measure_prints_a_spline_refusal_as_one_error_line(capsys, monkeypatch, nodes, message):
    # no scheme gives such rules, so `measure` is handed them directly
    rule = SimpleNamespace(nodes=tuple(nodes), weights=(1.0, 2.0, 3.0))
    monkeypatch.setattr("rii.quadrature.build_rule", lambda scheme, pert, n: rule)
    code = main(["measure", "--n", "3", "--method", "spline"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("build", [spline_density, lagrange_density])
def test_sample_density_names_the_first_x_that_is_not_finite(build):
    # the boundary cubic and the degree-7 interpolant overflow a float at
    # every sample from x = 2.5e103 on
    rule = build_rule(cauchy_scheme(), Perturbation.corec(0, Fraction(1, 100)), 8)
    approx = build(rule.nodes, rule.weights)
    with pytest.raises(ValueError, match=re.escape("not finite at x = 2.5e+103")):
        sample_density(approx, 0.0, 1e104, 5)


def test_sample_density_accepts_plain_callables():
    samples = sample_density(cauchy_density, -1.0, 1.0, 5)
    assert all(flag == "" for _x, _v, flag in samples)
    assert abs(samples[2][1] - 1.0 / math.pi) < 1e-15


def test_sample_density_refuses_unsampleable_intervals():
    for lo, hi in ((-1.7e308, 1.7e308), (math.nan, 1.0), (0.0, math.inf),
                   (-math.inf, 0.0), (math.nan, math.nan)):
        with pytest.raises(ValueError, match=re.escape("cannot sample [%r, %r]" % (lo, hi))):
            sample_density(cauchy_density, lo, hi, 400)
    with pytest.raises(ValueError, match="empty"):
        sample_density(cauchy_density, 1.0, -1.0, 3)
    # the widest finite grid keeps its points
    samples = sample_density(lambda x: 0.0, -0.8e308, 0.8e308, 3)
    assert [x for x, _v, _f in samples] == [-0.8e308, 0.0, 0.8e308]


@pytest.mark.parametrize("build", [lagrange_density, spline_density])
def test_non_finite_points_are_refused(build):
    for nodes, values in (([0.0, 1.0, math.inf], [1, 2, 3]),
                          ([0.0, 1.0, -math.inf], [1, 2, 3]),
                          ([0.0, math.nan, 2.0], [1, 2, 3]),
                          ([0.0, 1.0, 2.0], [1, math.inf, 3]),
                          ([0.0, 1.0, 2.0], [math.nan, 2, 3])):
        with pytest.raises(ValueError, match="finite"):
            build(nodes, values)


@pytest.mark.parametrize("build", [lagrange_density, spline_density])
def test_points_beyond_the_float_range_are_refused(build):
    # exact numbers too large for a float are refused by name, not with the
    # OverflowError of a later float(); a large one within it still builds
    for nodes, values in (([0, 1, 10 ** 400], [1, 2, 3]),
                          ([Fraction(-10 ** 400, 3), 0, 1], [1, 2, 3]),
                          ([0, 1, 2], [1, 2 ** 1024, 3]),
                          ([0, 1, 2], [1, Fraction(1, 3), -10 ** 309])):
        with pytest.raises(ValueError, match="within the float range"):
            build(nodes, values)
    assert build([0, 1, 2], [1, 2, 10 ** 300]).values[-1] == 1e300


def _divided_differences(nodes, values):
    """Reference interpolant: Newton divided differences over Fractions,
    expanded to a dense Poly."""
    pts = sorted(zip(map(Fraction, nodes), map(Fraction, values)))
    xs = [x for x, _ in pts]
    dd = [v for _, v in pts]
    for order in range(1, len(xs)):
        for j in range(len(xs) - 1, order - 1, -1):
            dd[j] = (dd[j] - dd[j - 1]) / (xs[j] - xs[j - order])
    poly = Poly.const(dd[-1])
    for j in range(len(xs) - 2, -1, -1):
        poly = poly * Poly((-xs[j], 1)) + dd[j]
    return poly


_scalars = st.one_of(
    st.integers(-10 ** 6, 10 ** 6),
    st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 6),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.floats(-1e-3, 1e-3, allow_nan=False),
)


@settings(max_examples=150, deadline=None)
@given(nodes=st.lists(_scalars, min_size=1, max_size=10, unique_by=Fraction),
       data=st.data())
def test_lagrange_matches_divided_differences(nodes, data):
    values = data.draw(st.lists(_scalars, min_size=len(nodes), max_size=len(nodes)))
    approx = lagrange_density(nodes, values)
    assert approx.poly == _divided_differences(nodes, values)
    assert approx.poly.degree <= len(nodes) - 1
    # the input order does not matter
    order = data.draw(st.permutations(range(len(nodes))))
    again = lagrange_density([nodes[i] for i in order], [values[i] for i in order])
    assert again.poly == approx.poly


@pytest.mark.parametrize("mu", [Fraction(1, 100), Fraction(-1, 100)])
def test_lagrange_samples_are_correctly_rounded(mu):
    rule = build_rule(cauchy_scheme(), Perturbation.corec(0, mu), 20)
    approx = lagrange_density(rule.nodes, rule.weights)
    samples = sample_density(approx, rule.nodes[0], rule.nodes[-1], 400)
    assert len(samples) == 400
    for x, value, _flag in samples:
        assert float.hex(value) == float.hex(quotient(*approx.poly.ratio_at(x)))


@pytest.mark.parametrize("mu", [Fraction(1, 100), Fraction(-1, 100)])
def test_a_low_degree_interpolant_is_sampled_on_its_enclosure(monkeypatch, mu):
    # at n = 10 the interpolant has degree 9 but a denominator of thousands
    # of bits: the enclosure, not exact Horner, rounds every sample
    rule = build_rule(cauchy_scheme(), Perturbation.corec(0, mu), 10)
    approx = lagrange_density(rule.nodes, rule.weights)
    assert approx.poly.degree == 9
    assert approx.poly.denominator.bit_length() > 2 * FRACTION_BITS
    exact = []
    ratio_at = Poly.ratio_at

    def counted(self, z):
        exact.append(z)
        return ratio_at(self, z)

    monkeypatch.setattr(Poly, "ratio_at", counted)
    samples = sample_density(approx, rule.nodes[0], rule.nodes[-1], 400)
    monkeypatch.undo()
    assert len(samples) == 400 and exact == []
    for x, value, _flag in samples:
        assert float.hex(value) == float.hex(quotient(*approx.poly.ratio_at(x)))
