"""Rules of the worked scheme: zeros, calibration, weights, guards."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from rii import (
    CoefficientScheme,
    ComplexZerosError,
    DegeneracyError,
    GaussianRational,
    Perturbation,
    Poly,
    RiiError,
    build_rule,
    calibrate_m0,
    cauchy_scheme,
    estimate,
    exactness_check,
    gen_both_kinds,
    gen_first_kind,
    real_zeros,
    weights_moment_formula,
    weights_second_kind,
)
from rii.quadrature import _polished_zeros
from rii.sequences import family_ends
from rii.suites import random_perturbation, random_scheme
from rii.tables import load_fixture


def test_real_zeros_are_cotangents(cauchy):
    for n in (4, 9, 15):
        poly = gen_first_kind(cauchy, None, n)[n]
        zeros = real_zeros(poly)
        expected = sorted(1 / math.tan(j * math.pi / (n + 1)) for j in range(1, n + 1))
        assert len(zeros) == n
        assert max(abs(z - e) for z, e in zip(zeros, expected)) < 1e-12


def test_real_zeros_complex_guard(cauchy):
    # nu_1 = 2.12 keeps every zero real through n = 17; the first conjugate
    # pair appears at n = 18 (checked against 60-digit root finding).
    pert = Perturbation.codil(1, Fraction("2.12"))
    seq = gen_first_kind(cauchy, pert, 18)
    assert len(real_zeros(seq[17])) == 17
    with pytest.raises(ComplexZerosError) as exc:
        real_zeros(seq[18])
    assert exc.value.pairs


def test_real_zeros_divides_out_a_non_real_lead():
    # 2i - 2i x^2 = -2i (x^2 - 1): its ratios are real, and so are its zeros
    i = GaussianRational.i()
    assert real_zeros(Poly((2 * i, 0, -2 * i))) == [-1.0, 1.0]


def test_non_real_coefficient_over_a_real_lead_is_refused():
    # (x - 1)(x - 2 - 10^-12 i): a seed 10^-12 off the axis, and a non-real
    # coefficient over lead 1 proves a non-real zero whatever the seeds say
    i = GaussianRational.i()
    poly = Poly((-1, 1)) * Poly((-(2 + Fraction(1, 10 ** 12) * i), 1))
    with pytest.raises(ComplexZerosError) as exc:
        real_zeros(poly)
    assert exc.value.pairs[-1] == pytest.approx(2 + 1e-12j, abs=1e-15)


def test_a_non_real_coefficient_with_real_seeds_is_refused_by_name():
    # (x - 1)(x - 2 - 10^-400 i): the imaginary parts underflow a float, so
    # every seed is real, yet the x^0 and x^1 coefficients are not
    i = GaussianRational.i()
    poly = Poly((-1, 1)) * Poly((-(2 + Fraction(1, 10 ** 400) * i), 1))
    with pytest.raises(ComplexZerosError, match=r"the x\^0 coefficient .* is not real") as exc:
        real_zeros(poly)
    assert exc.value.pairs == []


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32), n=st.integers(1, 12))
def test_real_zeros_are_the_rule_nodes_or_its_error(seed, n):
    # one zero finder: real_zeros(P*_n) fails as build_rule fails, or returns
    # n strictly increasing floats that are the rule's nodes when it builds
    rng = random.Random(seed)
    scheme = random_scheme(rng, n + 2)
    pert = random_perturbation(rng, n)
    p = family_ends(scheme, pert, n, ("first",))[0]
    assume(p.degree == n)
    try:
        zeros = real_zeros(p)
    except RiiError as exc:
        with pytest.raises(type(exc)) as raised:
            build_rule(scheme, pert, n)
        assert str(raised.value) == str(exc)
        return
    assert len(zeros) == n and all(isinstance(x, float) for x in zeros)
    assert all(a < b for a, b in zip(zeros, zeros[1:]))
    try:
        rule = build_rule(scheme, pert, n)
    except RiiError:
        return
    assert list(rule.nodes) == zeros


def _zeros_or_error(poly):
    try:
        return [float.hex(x) for x in real_zeros(poly)]
    except RiiError as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32), n=st.integers(1, 12), e=st.integers(-1200, 1200))
def test_a_power_of_two_keeps_the_zeros(seed, n, e):
    # 2^e P has the zeros of P: the same float bits, or the same refusal, also
    # where 2^e lead(P) would underflow or overflow a float
    rng = random.Random(seed)
    scheme = random_scheme(rng, n + 2)
    p = family_ends(scheme, random_perturbation(rng, n), n, ("first",))[0]
    assume(p.degree >= 1)
    assert _zeros_or_error(p * Fraction(2) ** e) == _zeros_or_error(p)


def test_a_lead_below_the_float_range_is_no_empty_rule():
    # P*_2 = 10^-400 x^2 - 1: its lead underflows a float; scaled to lead 1,
    # its constant term 10^400 is beyond the float range, so the rule is
    # refused rather than built with fewer than 2 nodes
    scheme = CoefficientScheme.oprl(Fraction("1e-200"), 0, 1)
    with pytest.raises(DegeneracyError, match="leave the float range"):
        build_rule(scheme, None, 2)


def test_calibrated_mass_is_one_half(cauchy):
    assert calibrate_m0(cauchy, 5) == Fraction(1, 2)
    assert calibrate_m0(cauchy, 12) == Fraction(1, 2)


def test_unperturbed_weights_equal_uniform(cauchy):
    # w_j = 1/(n+1) at the exact zeros, and every weight at the rounded nodes
    # rounds to it bit for bit
    for n in list(range(1, 41)) + [100]:
        rule = build_rule(cauchy, None, n)
        assert [float.hex(w) for w in rule.weights] == [float.hex(1 / (n + 1))] * n, n
        assert all(x1 < x2 for x1, x2 in zip(rule.nodes, rule.nodes[1:]))


def test_second_kind_raw_vs_unit_mass(cauchy):
    n = 4
    unit = build_rule(cauchy, None, n)
    p, q = family_ends(cauchy, None, n)
    raw = weights_second_kind(unit.nodes, 1, q, p.derivative())
    # raw weights are 2/5 each; the calibrated factor 1/2 scales them to 1/5
    assert max(abs(w - 0.4) for w in raw) < 1e-12
    assert max(abs(w - 0.2) for w in unit.weights) < 1e-12
    assert unit.m0 == Fraction(1, 2)


def test_moment_and_second_kind_weights_coincide(cauchy):
    # Casorati identity: Q*_n P*_{n-1} - P*_n Q*_{n-1} = prod lambda*W, so at
    # the zeros of P*_n the moment formula is the rule's M_0 Q*_n/P*_n'
    for pert in (Perturbation.corec(3, Fraction(1, 100)),
                 Perturbation.codil(4, Fraction(1036, 1000)),
                 Perturbation.both(2, Fraction(1, 100), 6, Fraction(251, 250))):
        for n in (10, 15):
            rule = build_rule(cauchy, pert, n)
            p, q = gen_both_kinds(cauchy, pert, n)
            moment = weights_moment_formula(cauchy, pert, rule.nodes, rule.m0, p)
            assert max(abs(a - b) / b for a, b in zip(rule.weights, moment)) < 1e-12
            # at a float node they differ by exactly M_0 P_n Q_{n-1} / (P_n' P_{n-1})
            dp = p[n].derivative()
            for x, w in zip(rule.nodes[:3], moment):
                x = Fraction(x)
                gap = rule.m0 * p[n](x) * q[n - 1](x) / (dp(x) * p[n - 1](x))
                assert float(rule.m0 * q[n](x) / dp(x) - gap) == w


def test_build_rule_complex_flag_and_errors(cauchy):
    with pytest.raises(ComplexZerosError):
        build_rule(cauchy, Perturbation.codil(1, Fraction("2.12")), 18)
    for nu in ("0.94", "0.98", "1.004", "1.036", "1.1"):
        rule = build_rule(cauchy, Perturbation.codil(1, Fraction(nu)), 15)
        assert len(rule.nodes) == 15
    # a coefficient beyond the float range
    with pytest.raises(DegeneracyError, match="zeros of P\\*_4 leave the float range"):
        build_rule(cauchy, Perturbation.corec(0, Fraction("1e400")), 4)


def is_correctly_rounded_zero(poly, x):
    """Whether poly's exact values at the midpoints between x and its float
    neighbours have opposite signs: a zero lies within half a unit of x."""
    below, above = (poly.ratio_at((Fraction(x) + Fraction(math.nextafter(x, end))) / 2)[0]
                    for end in (-math.inf, math.inf))
    return below * above < 0


# the benchmark's rule-ladder shapes: co-recursion, co-dilation and both
_LADDER_SHAPES = (Perturbation.corec(3, Fraction(1, 100)),
                  Perturbation.codil(4, Fraction(1036, 1000)),
                  Perturbation.both(2, Fraction(1, 100), 6, Fraction(1004, 1000)))


# the ladder's rungs, and table t4's rule: mu = -1/100 at level 0
@pytest.mark.parametrize("pert, sizes",
                         [(pert, (10, 40, 80, 100)) for pert in _LADDER_SHAPES]
                         + [(Perturbation.corec(0, Fraction(-1, 100)), (len(load_fixture("t4")),))],
                         ids=("corec", "codil", "both", "t4"))
def test_nodes_are_correctly_rounded_zeros(cauchy, pert, sizes):
    for n in sizes:
        p, _ = family_ends(cauchy, pert, n)
        assert all(is_correctly_rounded_zero(p, x) for x in build_rule(cauchy, pert, n).nodes)


@pytest.mark.parametrize("pert", _LADDER_SHAPES, ids=("corec", "codil", "both"))
def test_jittered_seeds_give_the_same_nodes(cauchy, pert, monkeypatch):
    # the nodes are Newton's fixed points, not an accident of the seeds: seeds
    # moved by up to 1e-9 (relative) polish to the same floats
    import numpy as np

    roots, rng = np.roots, np.random.default_rng(9)
    for n in (10, 40, 100):
        p, _ = family_ends(cauchy, pert, n)
        dp = p.derivative()
        nodes = [float.hex(x) for x in _polished_zeros(p, dp)[0]]
        for _ in range(3):
            monkeypatch.setattr(np, "roots", lambda coeffs: (
                roots(coeffs) * (1 + rng.uniform(-1e-9, 1e-9, len(coeffs) - 1))))
            assert [float.hex(x) for x in _polished_zeros(p, dp)[0]] == nodes
            monkeypatch.undo()


def test_zeros_far_beyond_the_coefficients_are_bracketed(cauchy):
    # mu = 1e200 puts a zero at 1.6e200, where P*_4 is about 10^800: the
    # Newton step is one rounded exact ratio, so no value of P*_4 overflows
    pert = Perturbation.corec(0, Fraction("1e200"))
    rule = build_rule(cauchy, pert, 4)
    assert rule.nodes == (-1.0, -1.25e-201, 1.0, 1.6e200)
    p, _ = family_ends(cauchy, pert, 4)
    assert all(is_correctly_rounded_zero(p, x) for x in rule.nodes)


@pytest.mark.parametrize("poly, cause", [(Poly((2, -2, 0, 1)), type(None)),
                                         (Poly((-1, 0, 1)), ZeroDivisionError)],
                         ids=("two-cycle", "flat-seed"))
def test_a_polish_that_cannot_converge_is_refused(monkeypatch, poly, cause):
    # every seed is 0: Newton on x^3 - 2x + 2 cycles 0 -> 1 -> 0 through all
    # its steps, and (x - 1)(x + 1) has P'(0) = 0 exactly
    import numpy as np

    monkeypatch.setattr(np, "roots", lambda coeffs: np.zeros(len(coeffs) - 1))
    with pytest.raises(DegeneracyError, match="root polish failed near x = 0$") as info:
        real_zeros(poly)
    assert isinstance(info.value.__context__, cause)


def test_estimate_applies_the_rule(cauchy):
    rule = build_rule(cauchy, None, 6)
    assert abs(estimate(rule, lambda x: 1.0) - 6.0 / 7.0) < 1e-12
    with pytest.raises(ValueError):
        estimate(rule, lambda x: float("nan"))


def test_estimate_accepts_integrand_objects(cauchy):
    from rii import parse_integrand

    rule = build_rule(cauchy, None, 4)
    expr = parse_integrand("x*x")
    direct = estimate(rule, lambda x: x * x)
    assert abs(estimate(rule, expr) - direct) < 1e-15


def test_exactness_sweep_small(cauchy):
    assert exactness_check(cauchy, 4, 7) < 1e-11
    assert exactness_check(cauchy, 4, 8) > 1e-3


def test_calibration_degeneracy():
    from rii import CoefficientScheme

    # rho_1 = 0 makes Q_2 vanish, so its leading-coefficient ratio is undefined
    degenerate = CoefficientScheme.special([1, 0, 1, 1], 0, Fraction(1, 4), omega=1)
    with pytest.raises(DegeneracyError, match="M_0 calibration failed: .* unperturbed Q_2"):
        calibrate_m0(degenerate, 1)


def test_m0_is_calibrated_once_per_scheme_and_n(monkeypatch):
    import rii.quadrature as quadrature

    calls = _counting(monkeypatch, quadrature, ("calibrate_m0",))
    scheme = cauchy_scheme()
    for n in (5, 6, 5, 6, 5):
        build_rule(scheme, Perturbation.corec(1, Fraction(n, 100)), n)
    assert calls == {"calibrate_m0": 2}
    build_rule(cauchy_scheme(), None, 5)       # another scheme object
    assert calls == {"calibrate_m0": 3}
    # a refusal is not kept: asking again calibrates again, and fails again
    from rii import CoefficientScheme

    degenerate = CoefficientScheme.special([1, 0, 1, 1], 0, Fraction(1, 4), omega=1)
    for _ in range(2):
        with pytest.raises(DegeneracyError, match="M_0 calibration"):
            build_rule(degenerate, None, 1)
    assert calls == {"calibrate_m0": 5}


def _counting(monkeypatch, module, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_each_family_is_generated_once_per_rule(cauchy, monkeypatch):
    import rii.quadrature as quadrature
    import rii.sequences as sequences

    calls = _counting(monkeypatch, quadrature, ("family_ends",))
    steps = _counting(monkeypatch, sequences, ("scaled_steps", "cleared_terms"))
    pert = Perturbation.both(2, Fraction(1, 100), 6, Fraction(251, 250))
    build_rule(cauchy, pert, 12)
    # one list of step terms, one term per step, serves both families
    assert calls == {"family_ends": 1}
    assert steps == {"scaled_steps": 1, "cleared_terms": 12}
    calibrate_m0(cauchy, 40)
    assert calls == {"family_ends": 1}
    assert steps == {"scaled_steps": 1, "cleared_terms": 12}


@pytest.mark.parametrize("n", [12, 40, 100])
def test_reused_enclosures_give_the_same_weights(cauchy, n):
    # Newton stops where its step leaves x unchanged, so every node hands on
    # the P_n' enclosure of its last step; each is the one the weights would
    # make, so weighing afresh gives the rule's weights exactly
    pert = Perturbation.both(2, Fraction(1, 100), 6, Fraction(251, 250))
    rule = build_rule(cauchy, pert, n)
    p, q = family_ends(cauchy, pert, n)
    dp = p.derivative()
    nodes, boxes = _polished_zeros(p, dp)
    assert nodes == list(rule.nodes)
    assert all(box is not None and box == dp.enclose(x) for x, box in zip(nodes, boxes))
    assert weights_second_kind(rule.nodes, rule.m0, q, dp) == list(rule.weights)


def _calibrate_from_polynomials(scheme, n):
    """M_0 by its definition: leading coefficients of the generated families."""
    from rii import gen_second_kind

    p = gen_first_kind(scheme, None, n + 1)
    q = gen_second_kind(scheme, None, n + 1)

    def ratio(m):
        for name, poly, degree in (("P", p[m], m), ("Q", q[m], m - 1)):
            if poly.degree != degree:
                raise DegeneracyError("M_0 calibration failed: the leading coefficient of "
                                      "the unperturbed %s_%d vanishes" % (name, m))
        return q[m].leading() / p[m].leading()

    lead_sum = (n + 2) * ratio(n + 1) - (n + 1) * ratio(n)
    if lead_sum == 0:
        raise DegeneracyError("calibration failed: extrapolated weight sum is zero")
    return Fraction(1) / lead_sum


def _outcome(compute):
    try:
        return compute()
    except DegeneracyError as exc:
        return str(exc)


@pytest.mark.parametrize("kind", ["general", "special", "oprl"])
def test_scalar_calibration_matches_leading_coefficients(kind):
    import random

    from rii.suites import random_scheme

    rng = random.Random("calibrate/" + kind)
    for _ in range(40):
        scheme = random_scheme(rng, 12, kind)
        n = rng.randint(1, 10)
        assert _outcome(lambda: calibrate_m0(scheme, n)) == \
            _outcome(lambda: _calibrate_from_polynomials(scheme, n))


def test_scalar_calibration_keeps_degeneracy_errors():
    from rii import CoefficientScheme

    for rho in ([1, 0, 1, 1], [1, 1, 0, 1]):
        degenerate = CoefficientScheme.special(rho, 0, Fraction(1, 4), omega=1)
        for n in (1, 2):
            assert _outcome(lambda: calibrate_m0(degenerate, n)) == \
                _outcome(lambda: _calibrate_from_polynomials(degenerate, n))


def test_boundary_errors(cauchy):
    from rii import IntegrandError, parse_integrand
    from rii.quadrature import QuadratureRule

    for n in (0, -3):
        with pytest.raises(ValueError):
            build_rule(cauchy, None, n)
        with pytest.raises(ValueError):
            calibrate_m0(cauchy, n)
    with pytest.raises(ValueError):
        gen_first_kind(cauchy, None, -1)
    with pytest.raises(DegeneracyError):
        QuadratureRule(n=2, nodes=(1.0, 1.0), weights=(0.5, 0.5),
                       perturbation=Perturbation.none(), m0=Fraction(1, 2))
    rule = build_rule(cauchy, None, 4)
    for text, words in (("1/(x-x)", "node 1"), ("x^x", "complex at node 1"),
                        ("exp(1000*x)", "node 4")):
        with pytest.raises(IntegrandError, match=words):
            estimate(rule, parse_integrand(text))


def test_zero_weights_are_positive_zero(cauchy):
    # float(Fraction(0)) is +0.0 whatever the sign of the denominator
    rule = build_rule(cauchy, None, 5)
    p, q = family_ends(cauchy, None, 5)
    weights = weights_second_kind(rule.nodes, 0, q, p.derivative())
    assert [math.copysign(1.0, w) for w in weights] == [1.0] * 5


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("extra", [0, GaussianRational(0, Fraction(1, 2 ** 1080))],
                         ids=("rational", "gaussian"))
def test_zeros_beyond_the_float_range_are_refused(extra):
    # 1 + x + 2^-1060 x^2 has a zero near -2^1060, beyond the float range: the
    # scaled x coefficient 2^1060 is inf.  A non-real constant term
    # 1 + 2^-1080 i meets the same refusal, and neither gives a warning
    poly = Poly.from_integers([2 ** 1060, 2 ** 1060, 1], 2 ** 1060) + extra
    with pytest.raises(DegeneracyError, match="leave the float range"):
        real_zeros(poly)


def test_vanishing_slope_is_a_degeneracy():
    # P_n'(x) = 0 at a node: the weight has no value, and the node is named
    dp = Poly((Fraction(-1, 2), 1))
    with pytest.raises(DegeneracyError, match="P'_n vanished at node 1"):
        weights_second_kind([0.25, 0.5], 1, Poly.one(), dp)


def test_degree_drop_raises_naming_the_degree(cauchy):
    # k' = 1, nu = 12/5: L_6 = (nu + (2 - nu) 6) / 2^6 = 0, so P*_6 has degree 4;
    # nu = 4: P*_2 = x^2 - 4 (x^2 + 1)/4 is the constant -1
    for nu, n, degree in (Fraction(12, 5), 6, 4), (Fraction(4), 2, 0):
        pert = Perturbation.codil(1, nu)
        assert gen_first_kind(cauchy, pert, n)[n].degree == degree
        message = "P\\*_%d vanishes: it has degree %d, not %d" % (n, degree, n)
        with pytest.raises(DegeneracyError, match=message):
            build_rule(cauchy, pert, n)
