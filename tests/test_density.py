"""Density approximation: Lagrange interpolant, natural spline, sampling."""

import math
import re
from fractions import Fraction

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
from rii.density import EXTRAPOLATED
from rii.exact import quotient
from rii.poly import ENCLOSE_MIN_DEGREE, FRACTION_BITS


@pytest.fixture(scope="module")
def rule():
    return build_rule(cauchy_scheme(), None, 8)


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


def test_spline_matches_knots_and_natural_bc(rule):
    approx = spline_density(rule.nodes, rule.weights)
    assert approx.kind == "spline"
    for x, w in zip(rule.nodes, rule.weights):
        assert abs(approx(x) - w) < 1e-12
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
    assert approx.poly.degree < ENCLOSE_MIN_DEGREE
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
