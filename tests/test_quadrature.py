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
    perturbed_zeros,
    real_zeros,
    weights_moment_formula,
    weights_second_kind,
)
from rii.poly import rounded_ratio
from rii.quadrature import (_cauchy_moment, _leads, _pencil_seeds, _polished_zeros,
                            _seed_slopes, _sturm_seeds)
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
    assert str(exc.value) == "P*_18 has complex zeros: no real quadrature rule exists"


_NON_REAL_RATIO = ("the ratio of the x^0 coefficient to the real leading coefficient is not "
                   "real, so a zero is not real: no real quadrature rule exists")


def test_real_zeros_divides_out_a_non_real_lead():
    # 2i - 2i x^2 = -2i (x^2 - 1): its ratios are real, and so are its zeros
    i = GaussianRational.i()
    assert real_zeros(Poly((2 * i, 0, -2 * i))) == [-1.0, 1.0]


def test_non_real_coefficient_over_a_real_lead_is_refused():
    # (x - 1)(x - 2 - 10^-12 i): a zero 10^-12 off the axis, and a non-real
    # coefficient over lead 1 proves a non-real zero before any seed
    i = GaussianRational.i()
    poly = Poly((-1, 1)) * Poly((-(2 + Fraction(1, 10 ** 12) * i), 1))
    with pytest.raises(ComplexZerosError) as exc:
        real_zeros(poly)
    assert str(exc.value) == _NON_REAL_RATIO


def test_a_non_real_coefficient_with_real_seeds_is_refused_by_name():
    # (x - 1)(x - 2 - 10^-400 i): the imaginary parts underflow a float, yet
    # the x^0 and x^1 coefficients are not real, and the first is named
    i = GaussianRational.i()
    poly = Poly((-1, 1)) * Poly((-(2 + Fraction(1, 10 ** 400) * i), 1))
    with pytest.raises(ComplexZerosError) as exc:
        real_zeros(poly)
    assert str(exc.value) == _NON_REAL_RATIO


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
    # P*_2 = 10^-800 x^2 - 1: its lead underflows a float, and its zeros
    # +-1e400 are beyond the float range.  rho < 0 leaves B of the pencil
    # indefinite, so the Sturm chain is tried, and the rule is refused rather
    # than built with fewer than 2 nodes
    scheme = CoefficientScheme.oprl(Fraction("-1e-400"), 0, 1)
    assert _pencil_seeds(scheme, Perturbation.none(), 2) is None
    with pytest.raises(DegeneracyError, match="leave the float range"):
        build_rule(scheme, None, 2)


def test_a_lead_below_the_float_range_has_its_pencil_rule():
    # the same P*_2 = 10^-400 x^2 - 1 from rho = +1e-200: B = 1e-200 I, so
    # the pencil's seeds are +-1e200, its zeros, and each weight is 1/2
    scheme = CoefficientScheme.oprl(Fraction("1e-200"), 0, 1)
    rule = build_rule(scheme, None, 2)
    assert rule.nodes == (-1e200, 1e200)
    assert rule.weights == (0.5, 0.5)


def test_a_lead_below_the_float_range_has_its_sturm_rule():
    # P*_2 = 10^-400 x^2 - 1 from rho = -1e-200: no definite pencil, but its
    # Sturm chain is 10^-400 x^2 - 1, 2 x, 1, whose Jacobi matrix has 1e200
    # beside its zero diagonal; the zeros +-1e200 are floats, and the rule
    # is the pencil rule's
    scheme = CoefficientScheme.oprl(Fraction("-1e-200"), 0, 1)
    assert _pencil_seeds(scheme, Perturbation.none(), 2) is None
    rule = build_rule(scheme, None, 2)
    assert rule.nodes == (-1e200, 1e200)
    assert rule.weights == (0.5, 0.5)


def _draw_definite_pencil(data, n):
    """A special or oprl scheme with every rho_m, lam*_m > 0 and a perturbation
    of it whose pencil is Hermitian-definite, or None."""
    positive = st.fractions(Fraction(1, 50), 20, max_denominator=50)
    real = st.fractions(-20, 20, max_denominator=50)
    rho, lam = (data.draw(st.lists(positive, min_size=n + 1, max_size=n + 1)) for _ in "rl")
    c = data.draw(st.lists(real, min_size=n + 1, max_size=n + 1))
    omega = data.draw(st.one_of(st.none(), positive))
    scheme = (CoefficientScheme.oprl(rho, c, lam) if omega is None
              else CoefficientScheme.special(rho, c, lam, omega))
    corec = data.draw(st.one_of(st.none(), st.tuples(st.integers(0, n), real)))
    codil = data.draw(st.one_of(st.none(), st.tuples(st.integers(1, n), positive)))
    k, mu = corec or (None, None)
    kp, nu = codil or (None, None)
    return scheme, Perturbation(k=k, mu=mu, kp=kp, nu=nu)


def _polish_bits(p, dp, seeds):
    try:
        return [float.hex(x) for x in _polished_zeros(p, dp, seeds())[0]]
    except RiiError:
        return "refused"


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 12), data=st.data())
def test_pencil_and_sturm_seeds_polish_to_the_same_zeros(n, data):
    # the nodes are Newton's fixed points: from the pencil's eigenvalues and
    # from the Sturm chain's they are the same floats, or both refuse
    scheme, pert = _draw_definite_pencil(data, n)
    seeds = _pencil_seeds(scheme, pert, n)
    assume(seeds is not None)
    p = family_ends(scheme, pert, n, ("first",))[0]
    assert p.degree == n     # lead(P*_n) = det B > 0
    dp = p.derivative()
    assert _polish_bits(p, dp, lambda: seeds) == _polish_bits(p, dp, lambda: _sturm_seeds(p))


def test_the_pencil_has_seeds_only_where_it_is_definite(cauchy):
    none = Perturbation.none()
    n = 12
    seeds = _pencil_seeds(cauchy, none, n)
    expected = sorted(1 / math.tan(j * math.pi / (n + 1)) for j in range(1, n + 1))
    assert max(abs(a - b) for a, b in zip(seeds, expected)) < 1e-14
    # oprl: B = diag(rho), A tridiagonal; P_2 = 4x^2 - 2 from rho = 2, lam = 2
    assert _pencil_seeds(CoefficientScheme.oprl(2, 0, 2), none, 2) == pytest.approx(
        [-0.5 ** 0.5, 0.5 ** 0.5], rel=1e-15)
    general = CoefficientScheme.general(1, 0, Fraction(1, 4), nodes=lambda m: (0, 1))
    for scheme, pert in [
            (general, none),
            (CoefficientScheme.special(1, 0, -1, 1), none),         # lam <= 0
            (CoefficientScheme.oprl([1, 0] + [1] * n, 0, 1), none),   # rho <= 0
            (CoefficientScheme.oprl(Fraction("1e-400"), 0, 1), none),  # pivots round to 0
            (cauchy, Perturbation.corec(2, Fraction(10) ** 400))]:    # c* not a float
        assert _pencil_seeds(scheme, pert, n) is None
    # criterion 10: nu_1 = 2.12 keeps B definite through n = 17, and at n = 18,
    # where P*_18 has a conjugate pair of zeros, a pivot is <= 0
    assert _pencil_seeds(cauchy, Perturbation.codil(1, Fraction("2.12")), 17) is not None
    assert _pencil_seeds(cauchy, Perturbation.codil(1, Fraction("2.12")), 18) is None


def test_the_lead_chain_is_the_families_leading_coefficients():
    # V_m / D_m is the coefficient of z^m in P*_m and of z^(m-1) in Q*_m, for
    # every scheme kind and perturbation the suites draw
    rng = random.Random(5)
    for _ in range(1500):
        n = rng.randint(1, 12)
        scheme = random_scheme(rng, n + 2)
        pert = random_perturbation(rng, n)
        p, q = family_ends(scheme, pert, n)
        (lead_p, lead_q), dens = _leads(scheme, pert, n, ("first", "second"))
        assert Fraction(lead_p[n], dens[n]) == p[n]
        assert Fraction(lead_q[n], dens[n]) == q[n - 1]


def _non_positive_ratios(scheme, pert, n):
    (lead,), _ = _leads(scheme, pert, n, ("first",))
    return sum(u * v <= 0 for u, v in zip(lead, lead[1:]))


def test_the_lead_chain_decides_criterion_10(cauchy):
    # nu_1 = 2.12 keeps every pivot L_{m+1}/L_m of B positive through n = 17;
    # from n = 18 on exactly one is negative, and P*_n has a conjugate pair
    pert = Perturbation.codil(1, Fraction("2.12"))
    assert [_non_positive_ratios(cauchy, pert, n) for n in (17, 18, 30, 60, 84)] == \
        [0, 1, 1, 1, 1]
    # k' = 1, nu = 12/5 cancels the lead of P*_6: V_6 = 0 is the degree drop
    (lead,), _ = _leads(cauchy, Perturbation.codil(1, Fraction(12, 5)), 6, ("first",))
    assert lead[6] == 0 and min(lead[:6]) > 0


def _first_n_without_a_rule(kp, nu):
    """(n*, whether the bracket is an integer) of a co-dilation (kp, nu) of the
    worked example, or None when every n keeps a rule."""
    excess = kp * (nu - 1) - 1
    if excess <= 0:
        return None
    bracket = kp + (kp + 1) / excess
    return math.ceil(bracket), bracket.denominator == 1


def test_co_dilation_of_the_worked_example_has_a_closed_form(cauchy):
    """The lead chain of rho = 1, lam = 1/4 under a co-dilation (k', nu).

    The pivots d_m = L_{m+1}/L_m start at d_0 = 1 and follow
    d_m = 1 - lam*_m/d_{m-1}, so d -> 1 - 1/(4d) away from k'.  With
    d = (t+1)/(2t) that map is t -> t + 1, and d_0 = 1 is t_0 = 1: plainly
    t_m = m + 1 > 0, so every d_m > 0.  At k', d_{k'} = 1 - nu k'/(2(k'+1)),
    that is t_{k'} = (k'+1)/(1 - k'(nu-1)), and t_m = t_{k'} + m - k' from
    there on.  d <= 0 exactly when t lies in [-1, 0), and d = 0 at t = -1.
    - nu <= 1 + 1/k': t_{k'} is positive (or infinite, the fixed point
      d = 1/2), and so is every later t: every L_n > 0.
    - nu > 1 + 1/k': t_{k'} < 0 rises by 1 a step, so exactly one m has
      t_m in [-1, 0): the first m >= k' - 1 + (k'+1)/(k'(nu-1) - 1).  The
      first non-positive lead is L_{m+1}, at
      n* = ceil(k' + (k'+1)/(k'(nu-1) - 1)), and it is 0 (t_m = -1, the
      degree drop) exactly when the bracket is an integer.
    """
    drops = 0
    for kp in range(1, 9):
        for j in range(1, 40):
            nu = Fraction(j, 8)
            (lead,), _ = _leads(cauchy, Perturbation.codil(kp, nu), 120, ("first",))
            first = next((n for n, v in enumerate(lead) if v <= 0), None)
            closed = _first_n_without_a_rule(kp, nu)
            if closed is None:
                assert first is None, (kp, nu)
                continue
            n_star, integral = closed
            assert (first, lead[n_star] == 0) == (n_star, integral), (kp, nu)
            drops += integral
    assert drops == 25
    # k' = 1 is criterion 10's ceil(nu/(nu - 2)): n* = 18 at nu = 2.12
    assert _first_n_without_a_rule(1, Fraction("2.12")) == (18, False)


@pytest.mark.parametrize("kp", [1, 2, 3, 4])
def test_the_closed_form_is_where_the_co_dilated_rule_stops(cauchy, kp):
    # P*_{n*-1} has its n* - 1 real zeros; P*_{n*} has a conjugate pair, or
    # drops its degree when the bracket is an integer
    for j in range(1, 40):
        nu = Fraction(j, 8)
        closed = _first_n_without_a_rule(kp, nu)
        if closed is None or closed[0] > 40:
            continue
        n_star, integral = closed
        pert = Perturbation.codil(kp, nu)
        assert len(perturbed_zeros(cauchy, pert, n_star - 1)) == n_star - 1
        with pytest.raises(DegeneracyError if integral else ComplexZerosError):
            perturbed_zeros(cauchy, pert, n_star)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 12), data=st.data())
def test_a_positive_lead_chain_has_a_rule_for_any_co_recursion(n, data):
    # every L_m > 0 makes the pencil Hermitian-definite, and a co-recursion
    # changes A alone: P*_n has n simple real zeros, and they are found
    scheme, pert = _draw_definite_pencil(data, n)
    k = data.draw(st.integers(0, n))
    mu = data.draw(st.fractions(-1000, 1000, max_denominator=50))
    pert = Perturbation(k=k, mu=mu, kp=pert.kp, nu=pert.nu)
    (lead,), _ = _leads(scheme, pert, n, ("first",))
    assume(min(lead) > 0)
    zeros = perturbed_zeros(scheme, pert, n)
    assert len(zeros) == n and all(a < b for a, b in zip(zeros, zeros[1:]))


def test_real_zeros_of_the_worked_example_beyond_n_103(cauchy):
    # from the polynomial alone, the Sturm chain seeds the rule's nodes
    for n in (104, 200):
        p = family_ends(cauchy, None, n, ("first",))[0]
        assert real_zeros(p) == perturbed_zeros(cauchy, None, n)


def test_the_sturm_chain_decides_a_conjugate_pair(cauchy):
    # mu = -3 at k = 0 with nu = 2.12 at k' = 1: B is indefinite from n = 18
    # on, yet every zero of P*_83 is real; at n = 84 a pair leaves the axis
    pert = Perturbation.both(0, Fraction(-3), 1, Fraction("2.12"))
    assert _pencil_seeds(cauchy, pert, 83) is None
    p = family_ends(cauchy, pert, 83, ("first",))[0]
    assert all(is_correctly_rounded_zero(p, x) for x in build_rule(cauchy, pert, 83).nodes)
    with pytest.raises(ComplexZerosError, match=r"^P\*_84 has complex zeros"):
        build_rule(cauchy, pert, 84)


def test_a_repeated_zero_is_refused_by_name():
    # -(1/256) x^2 (3376x^4 + 6836x^3 - 6432x^2 - 7211x + 2636), a P*_6 of the
    # general kind: 0 is a double zero, so gcd(P, P') is not constant
    p = Poly((0, 0, 2636, -7211, -6432, 6836, 3376)) * Fraction(-1, 256)
    with pytest.raises(DegeneracyError) as exc:
        real_zeros(p)
    assert str(exc.value) == "P*_6 has a repeated zero: two nodes coincide"


@settings(max_examples=100, deadline=None)
@given(roots=st.lists(st.integers(-30, 30), min_size=1, max_size=8, unique=True),
       lead=st.integers(-5, 5).filter(bool),
       pair=st.one_of(st.none(), st.tuples(st.integers(-9, 9), st.integers(1, 30))),
       double=st.one_of(st.none(), st.integers(-30, 30)))
def test_the_sturm_chain_decides_known_factorizations(roots, lead, pair, double):
    # lead prod (x - r) over distinct integers r, times x^2 + bx + c with
    # b^2 < 4c and a squared (x - d), each optional: a non-real pair is
    # refused as complex zeros, else a repeated zero as coincident nodes,
    # else the polished seeds are exactly the roots
    poly = Poly.const(lead)
    for r in roots:
        poly = poly * Poly((-r, 1))
    if pair is not None:
        b, c = pair[0], pair[0] ** 2 // 4 + pair[1]        # b^2 < 4c
        poly = poly * Poly((c, b, 1))
    if double is not None:
        poly = poly * Poly((-double, 1)) ** 2
    if pair is not None:
        with pytest.raises(ComplexZerosError):
            real_zeros(poly)
    elif double is not None:
        with pytest.raises(DegeneracyError, match="repeated zero"):
            real_zeros(poly)
    else:
        assert real_zeros(poly) == sorted(map(float, roots))


def test_two_seeds_that_polish_to_one_zero_are_refused(cauchy):
    # P_3 has zeros -1, 0 and 1; the seeds 1.5 and 1.6 both polish to 1
    p = family_ends(cauchy, None, 3, ("first",))[0]
    with pytest.raises(DegeneracyError, match="nodes must be strictly increasing"):
        _polished_zeros(p, p.derivative(), [1.5, 1.6, -1.7])


@pytest.mark.parametrize("mu, n", [("1e200", 4), ("1e20", 10), ("1e200", 10), ("1e200", 30)])
def test_a_graded_pencil_falls_back_to_the_sturm_chain(cauchy, mu, n):
    # a graded pencil's eigenvalues can be far off: mu = 1e200 leaves seeds
    # near 1e183-1e184, mu = 1e20 seeds thousands away from the zeros, and
    # polish fails from all.  The Sturm chain's seeds build every rule, and
    # each node is the correctly rounded zero
    pert = Perturbation.corec(0, Fraction(mu))
    p = family_ends(cauchy, pert, n, ("first",))[0]
    seeds = _pencil_seeds(cauchy, pert, n)
    assert seeds is not None
    with pytest.raises(DegeneracyError):
        _polished_zeros(p, p.derivative(), seeds)
    nodes = list(build_rule(cauchy, pert, n).nodes)
    assert nodes == _polished_zeros(p, p.derivative(), _sturm_seeds(p))[0]
    assert all(is_correctly_rounded_zero(p, x) for x in nodes)


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
def test_jittered_seeds_give_the_same_nodes(cauchy, pert):
    # the nodes are Newton's fixed points, not an accident of the seeds: seeds
    # moved by up to 1e-9 (relative) polish to the same floats
    rng = random.Random(9)
    for n in (10, 40, 100):
        p, _ = family_ends(cauchy, pert, n)
        dp = p.derivative()
        seeds = _sturm_seeds(p)
        nodes = [float.hex(x) for x in _polished_zeros(p, dp, seeds)[0]]
        for _ in range(3):
            jittered = [x * (1 + rng.uniform(-1e-9, 1e-9)) for x in seeds]
            assert [float.hex(x) for x in _polished_zeros(p, dp, jittered)[0]] == nodes


def _all_exact_newton(poly, dpoly, seeds):
    """`_polished_zeros` with every step exact, its seed step too: the
    reference the seed-slope first step must agree with."""
    polished = []
    for x in seeds:
        for _ in range(40):
            box = dpoly.enclose(x)
            try:
                step = rounded_ratio(1, poly, dpoly, x, box)
            except ZeroDivisionError:
                raise DegeneracyError("root polish failed near x = %.17g" % x) from None
            x_new = x - step
            if not math.isfinite(x_new):
                raise DegeneracyError("the zeros of P*_%d leave the float range: a "
                                      "coefficient, a root or a Newton step is not finite"
                                      % poly.degree)
            if x_new == x:
                break
            x = x_new
        else:
            raise DegeneracyError("root polish failed near x = %.17g" % x)
        polished.append((x_new, box))
    polished.sort(key=lambda pair: pair[0])
    zeros = [x for x, _ in polished]
    if any(b <= a for a, b in zip(zeros, zeros[1:])):
        raise DegeneracyError("nodes must be strictly increasing")
    return zeros, [box for _, box in polished]


def _polish_outcome(polish, p, seeds):
    """(node bits, P' enclosures) of one polish, or its refusal's text."""
    try:
        zeros, boxes = polish(p, p.derivative(), seeds)
    except DegeneracyError as exc:
        return str(exc)
    return [float.hex(x) for x in zeros], boxes


def _seed_steps_taken(p, seeds):
    """Whether the guard lets each seed take the seed-slope step."""
    boxes = [p.enclose(x) for x in seeds]
    return [math.isfinite(s) and s != 0 and (hi - lo) << 21 <= abs(lo + hi)
            for s, (lo, hi, _) in zip(_seed_slopes(p, seeds), boxes)]


def _assert_polished_as_all_exact(p, seeds):
    assert _polish_outcome(_polished_zeros, p, seeds) == \
        _polish_outcome(_all_exact_newton, p, seeds)


def test_the_seed_step_keeps_the_all_exact_nodes_on_random_draws():
    # the first 600 draws of the Random(5) sweep, from the pencil's seeds
    # and the Sturm chain's: the same nodes and enclosures, or the same refusal
    rng = random.Random(5)
    compared = 0
    for _ in range(600):
        n = rng.randint(1, 12)
        scheme = random_scheme(rng, n + 2)
        pert = random_perturbation(rng, n)
        p = family_ends(scheme, pert, n, ("first",))[0]
        if p.degree != n:
            continue
        try:
            sturm = _sturm_seeds(p)
        except RiiError:
            sturm = None
        for seeds in (_pencil_seeds(scheme, pert, n), sturm):
            if seeds is not None:
                _assert_polished_as_all_exact(p, seeds)
                compared += 1
    assert compared > 150


@pytest.mark.parametrize("pert", _LADDER_SHAPES, ids=("corec", "codil", "both"))
def test_the_seed_step_keeps_the_all_exact_nodes_on_the_ladder(cauchy, pert):
    for n in (40, 100):
        p = family_ends(cauchy, pert, n, ("first",))[0]
        seeds = _pencil_seeds(cauchy, pert, n)
        assert all(_seed_steps_taken(p, seeds))
        _assert_polished_as_all_exact(p, seeds)


@pytest.mark.parametrize("p, seeds", [
    # lead(P) = 10^400 is not a float
    (Poly((-2 * 10 ** 400, 0, 10 ** 400)), [-1.4, 1.5]),
    # P = x^3 - 10^400 x: every S_j, about +-1e400, overflows
    (Poly((0, -10 ** 400, 0, 1)), [-1.01e200, 1e-3, 0.99e200]),
    # two equal seeds: S_j = 0, and both polish to the zero 1
    (Poly((-1, 0, 1)), [1.2, 1.2]),
    # P = 2^400 (x - 2^-220)(x - 3 2^-220) has 441-bit numerators, so its
    # enclosure's unit is 1, and P is near 2^-59 at the seeds: a step from the
    # midpoint would land about 2^39 times as far out as the zeros, and 40
    # Newton steps would not bring it back
    (Poly.from_integers((3, -2 ** 222, 2 ** 440), 2 ** 40),
     [2.0 ** -220 * (1 + 1e-6), 3 * 2.0 ** -220 * (1 - 1e-6)]),
], ids=("lead-not-a-float", "slope-not-finite", "slope-zero", "enclosure-too-wide"))
def test_each_guard_of_the_seed_step_falls_back_to_an_exact_step(p, seeds):
    assert not any(_seed_steps_taken(p, seeds))
    _assert_polished_as_all_exact(p, seeds)


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
def test_a_polish_that_cannot_converge_is_refused(poly, cause):
    # every seed is 0: Newton on x^3 - 2x + 2 cycles 0 -> 1 -> 0 through all
    # its steps, and (x - 1)(x + 1) has P'(0) = 0 exactly
    with pytest.raises(DegeneracyError, match="root polish failed near x = 0$") as info:
        _polished_zeros(poly, poly.derivative(), [0.0] * poly.degree)
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


def test_exactness_check_refuses_a_divergent_degree(cauchy):
    # the moment of x^m/(x^2+1)^4 against 1/(pi (1+x^2)) diverges for m > 8
    for p_degree in (-1, 9, 10):
        with pytest.raises(ValueError, match=r"0\.\.8, got %d" % p_degree):
            exactness_check(cauchy, 4, p_degree)


@pytest.mark.parametrize("n", [1, 4, 6, 8])
def test_cauchy_moments_sum_to_the_density_mass(n):
    # sum_a C(n, a) x^(2a) = (1+x^2)^n, so the even moments weighted by
    # C(n, a) integrate the density itself
    assert sum(math.comb(n, a) * _cauchy_moment(n, 2 * a) for a in range(n + 1)) == 1
    assert all(_cauchy_moment(n, m) == 0 for m in range(1, 2 * n, 2))


@pytest.mark.parametrize("n", [4, 6, 8])
def test_cauchy_moments_match_adaptive_quad(n):
    from scipy.integrate import quad

    for m in range(2 * n + 1):
        reference, _err = quad(lambda x: x ** m / (math.pi * (1.0 + x * x) ** (n + 1)),
                               -math.inf, math.inf, epsabs=1e-13, epsrel=1e-13, limit=300)
        assert abs(float(_cauchy_moment(n, m)) - reference) < 1e-13, m


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
    steps = _counting(monkeypatch, sequences, ("_families", "cleared_terms"))
    pert = Perturbation.both(2, Fraction(1, 100), 6, Fraction(251, 250))
    build_rule(cauchy, pert, 12)
    # one list of step terms, one term per step, serves both families
    assert calls == {"family_ends": 1}
    assert steps == {"_families": 1, "cleared_terms": 12}
    calibrate_m0(cauchy, 40)
    assert calls == {"family_ends": 1}
    assert steps == {"_families": 1, "cleared_terms": 12}


@pytest.mark.parametrize("n", [12, 40, 100])
def test_reused_enclosures_give_the_same_weights(cauchy, n):
    # Newton stops where its step leaves x unchanged, so every node hands on
    # the P_n' enclosure of its last step; each is the one the weights would
    # make, so weighing afresh gives the rule's weights exactly
    pert = Perturbation.both(2, Fraction(1, 100), 6, Fraction(251, 250))
    rule = build_rule(cauchy, pert, n)
    p, q = family_ends(cauchy, pert, n)
    dp = p.derivative()
    nodes, boxes = _polished_zeros(p, dp, _sturm_seeds(p))
    assert nodes == list(rule.nodes)
    assert all(box is not None and box == dp.enclose(x) for x, box in zip(nodes, boxes))
    assert weights_second_kind(rule.nodes, rule.m0, q, dp) == list(rule.weights)


def test_a_seed_left_in_place_is_enclosed_once(monkeypatch):
    # where the seed step leaves x unchanged, the first exact step reads
    # P(x) off the seed step's enclosure; handing none on, as before, encloses
    # P at that x twice and gives the same nodes and P' enclosures
    import rii.quadrature as quadrature

    scheme, pert = cauchy_scheme(), Perturbation.corec(2, Fraction(1, 100))
    p, _q = family_ends(scheme, pert, 12)
    dp = p.derivative()
    seeds = _pencil_seeds(scheme, pert, 12)
    count = [0]
    enclose = Poly.enclose

    def counted(poly, x):
        count[0] += 1
        return enclose(poly, x)

    monkeypatch.setattr(Poly, "enclose", counted)
    reused = _polished_zeros(p, dp, seeds), count[0]
    count[0] = 0
    monkeypatch.setattr(quadrature, "rounded_ratio",
                        lambda scale, top, bottom, x, box, _top: rounded_ratio(
                            scale, top, bottom, x, box))
    fresh = _polished_zeros(p, dp, seeds), count[0]
    assert reused[0] == fresh[0]
    assert reused[1] < fresh[1]


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
    for generate in (gen_first_kind, gen_both_kinds):
        with pytest.raises(ValueError):
            generate(cauchy, None, -1)
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
@pytest.mark.parametrize("extra, error, message", [
    (0, DegeneracyError, "the zeros of P*_2 leave the float range: a coefficient, a root or "
                         "a Newton step is not finite"),
    (GaussianRational(0, Fraction(1, 2 ** 1080)), ComplexZerosError, _NON_REAL_RATIO)],
    ids=("rational", "gaussian"))
def test_zeros_beyond_the_float_range_are_refused(extra, error, message):
    # 1 + x + 2^-1060 x^2 has a zero near -2^1060, beyond the float range: the
    # Sturm chain's center -q_0/q_1 there is not a float.  A non-real constant
    # term 1 + 2^-1080 i is refused first, on its non-real ratio, and neither
    # gives a warning
    poly = Poly.from_integers([2 ** 1060, 2 ** 1060, 1], 2 ** 1060) + extra
    with pytest.raises(error) as exc:
        real_zeros(poly)
    assert str(exc.value) == message


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
