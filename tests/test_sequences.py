"""Polynomial families of the recurrence: values pinned by hand."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rii import (
    CoefficientScheme,
    GaussianRational,
    Perturbation,
    Poly,
    SchemeIndexError,
    build_rule,
    calibrate_m0,
    cauchy_scheme,
    eval_recurrence_at,
    eval_sequence_at,
    example_closed_form,
    gen_associated,
    gen_both_kinds,
    gen_first_kind,
    gen_second_kind,
)
from rii.poly import norm1
from rii.sequences import (_Family, _step_terms, center_term, cleared_terms, family_ends,
                           iterate, weight_term)
from rii.suites import random_perturbation, random_rational, random_scheme


def test_first_kind_worked_values(cauchy):
    seq = gen_first_kind(cauchy, None, 10)
    # P_2 = (3x^2 - 1)/4
    assert seq[2] == Poly((Fraction(-1, 4), 0, Fraction(3, 4)))
    assert seq[10](Fraction(0)) == Fraction(-1, 1024)
    assert seq[2](Fraction(1)) == Fraction(1, 2)
    # leading coefficient (n+1)/2^n
    for n in range(11):
        assert seq[n].leading() == Fraction(n + 1, 2 ** n)
        assert seq[n].degree == n


def test_second_kind_equals_shifted_first_kind(cauchy):
    p = gen_first_kind(cauchy, None, 11)
    q = gen_second_kind(cauchy, None, 12)
    assert q[0].is_zero() and q[1] == Poly.one()
    for n in range(1, 13):
        assert q[n] == p[n - 1]
        assert q[n].degree == n - 1


def test_closed_form_matches_recurrence(cauchy):
    seq = gen_first_kind(cauchy, None, 12)
    for n in range(13):
        assert example_closed_form(n) == seq[n]
    with pytest.raises(ValueError):
        example_closed_form(-1)


def test_pinned_perturbed_first_step(cauchy):
    # co-recursion at k = 0 with mu = 1/10 shifts P_1 to x - 1/10
    pert = Perturbation.corec(0, Fraction(1, 10))
    seq = gen_first_kind(cauchy, pert, 3)
    assert seq[1] == Poly((Fraction(-1, 10), 1))


def test_corec_at_zero_never_touches_second_kind(cauchy):
    pert = Perturbation.corec(0, Fraction(3, 7))
    plain = gen_second_kind(cauchy, None, 9)
    moved = gen_second_kind(cauchy, pert, 9)
    for n in range(10):
        assert plain[n] == moved[n]


def test_codil_changes_exactly_the_tail(cauchy):
    pert = Perturbation.codil(2, Fraction(3, 2))
    plain = gen_first_kind(cauchy, None, 6)
    moved = gen_first_kind(cauchy, pert, 6)
    for n in range(3):                # steps before kp are untouched
        assert plain[n] == moved[n]
    for n in range(3, 7):
        assert plain[n] != moved[n]


def test_associated_families(cauchy):
    g = gen_associated(cauchy, 1, 4, kind="first")
    assert g[0] == Poly.one()
    # order-2 shift: G_1 = rho_2 (x - c_2) = x for this scheme
    assert g[1] == Poly.x()
    h = gen_associated(cauchy, 1, 4, kind="second")
    assert h[0].is_zero() and h[1] == Poly.one()
    with pytest.raises(ValueError):
        gen_associated(cauchy, -1, 3)


@pytest.mark.parametrize("shift", [-1, -4])
def test_a_negative_shift_is_refused(cauchy, shift):
    # a recurrence over coefficient index -1 reads lambda_0, which no step
    # queries: refused as gen_associated refuses an order shift j < 0
    for kind in ("first", "second"):
        with pytest.raises(ValueError, match="shift must be >= 0, got %d" % shift):
            eval_sequence_at(cauchy, None, kind, 3, Fraction(1, 2), shift=shift)


def test_eval_matches_coefficient_path(cauchy):
    pert = Perturbation.both(1, Fraction(1, 3), 2, Fraction(5, 4))
    seq = gen_first_kind(cauchy, pert, 8)
    z = Fraction(2, 3)
    assert eval_recurrence_at(cauchy, pert, "first", 8, z) == seq[8](z)
    values = eval_sequence_at(cauchy, pert, "first", 8, z)
    assert [p(z) for p in seq] == list(values)


_points = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
    st.floats(min_value=-6, max_value=6),
    st.builds(GaussianRational, st.fractions(-3, 3, max_denominator=4),
              st.fractions(-3, 3, max_denominator=4)),
)


@pytest.mark.parametrize("scheme_kind", ["general", "special", "oprl", "gaussian", "mixed"])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32), shape=st.sampled_from(("corec", "codil", "both")),
       kind=st.sampled_from(("first", "second")), shift=st.integers(0, 4),
       n=st.integers(0, 9), z=_points)
def test_eval_matches_coefficient_path_on_random_schemes(scheme_of_kind, scheme_kind, seed,
                                                         shape, kind, shift, n, z):
    # the scaled scalar loop (integer steps at a rational z with real weights,
    # Fraction and GaussianRational steps otherwise, both in one family when
    # the scheme is mixed) equals the Poly families at z
    rng = random.Random(seed)
    scheme = scheme_of_kind(rng, scheme_kind)
    pert = random_perturbation(rng, 6, shape)
    polys = iterate(lambda m: center_term(scheme, pert, m),
                    lambda m: weight_term(scheme, pert, m),
                    kind, n, shift, Poly.one(), Poly.zero())
    assert eval_sequence_at(scheme, pert, kind, n, z, shift=shift) == \
        [p(z) for p in polys]
    family = (gen_first_kind if kind == "first" else gen_second_kind)(scheme, pert, n)
    assert eval_sequence_at(scheme, pert, kind, n, z) == [p(z) for p in family]
    assert eval_recurrence_at(scheme, pert, kind, n, z) == family[n](z)
    assert gen_both_kinds(scheme, pert, n) == (
        gen_first_kind(scheme, pert, n), gen_second_kind(scheme, pert, n))
    if shift:
        associated = gen_associated(scheme, shift - 1, n, kind)
        assert eval_sequence_at(scheme, None, kind, n, z, shift=shift) == \
            [p(z) for p in associated]


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32), flip=st.booleans())
def test_perturbed_family_prefixes_are_the_families_perturbed_below(seed, flip):
    # a part at level L first changes u_{L+1}: the first L + 1 values of both
    # kinds are those of the perturbation without its parts at levels >= L
    rng = random.Random(seed)
    scheme = random_scheme(rng, 16)
    pert = random_perturbation(rng, 8)
    if flip and pert.k is not None and pert.kp is not None and pert.k >= 1:
        pert = Perturbation.both(pert.kp, pert.mu, pert.k, pert.nu)     # k >= kp
    p, q = gen_both_kinds(scheme, pert, 10)
    for level in {pert.k, pert.kp} - {None}:
        corec = pert.k is not None and pert.k < level
        codil = pert.kp is not None and pert.kp < level
        lower = Perturbation(k=pert.k if corec else None, mu=pert.mu if corec else None,
                             kp=pert.kp if codil else None, nu=pert.nu if codil else None)
        p_low, q_low = gen_both_kinds(scheme, lower, 10)
        assert p[:level + 1] == p_low[:level + 1]
        assert q[:level + 1] == q_low[:level + 1]


def _unscaled(scheme, pert, kind, n, shift=0):
    """u_0..u_n by the unscaled Poly loop: the reference for the packed one."""
    pert = pert or Perturbation.none()
    return iterate(lambda m: center_term(scheme, pert, m),
                   lambda m: weight_term(scheme, pert, m),
                   kind, n, shift, Poly.one(), Poly.zero())


@pytest.mark.parametrize("scheme_kind", ["general", "special", "oprl", "mixed"])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32), n=st.integers(0, 12), shift=st.integers(0, 3),
       flip=st.booleans())
def test_packed_families_match_their_values(scheme_of_kind, scheme_kind, seed, n, shift,
                                            flip):
    # every member that the packed loop unpacks (a non-real step in "mixed"
    # leaves it to the Poly loop) has, at three rational points, the values
    # eval_sequence_at finds on its own integer loop; flip puts k above k'
    rng = random.Random(seed)
    scheme = scheme_of_kind(rng, scheme_kind)
    pert = random_perturbation(rng, 8)
    if flip and pert.k is not None and pert.kp is not None and pert.k >= 1:
        pert = Perturbation.both(pert.kp, pert.mu, pert.k, pert.nu)
    points = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)]
    p, q = gen_both_kinds(scheme, pert, n)
    assert list(p) == _unscaled(scheme, pert, "first", n)
    assert list(q) == _unscaled(scheme, pert, "second", n)
    assert family_ends(scheme, pert, n) == (p[n], q[n])
    associated = [(kind, gen_associated(scheme, shift - 1, n, kind))
                  for kind in ("first", "second")] if shift else []
    for z in points:
        assert [u(z) for u in p] == eval_sequence_at(scheme, pert, "first", n, z)
        assert [u(z) for u in q] == eval_sequence_at(scheme, pert, "second", n, z)
        for kind, family in associated:
            assert [u(z) for u in family] == eval_sequence_at(scheme, None, kind, n, z,
                                                              shift=shift)


@pytest.mark.parametrize("scheme_kind", ["general", "special", "oprl", "mixed"])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32), n=st.integers(0, 12), shift=st.integers(0, 2),
       shape=st.sampled_from(("none", "corec", "codil", "both")), data=st.data())
def test_each_read_member_is_within_its_bound(scheme_of_kind, scheme_kind, seed, n, shift,
                                              shape, data):
    # the packing width's proof obligation, member by member: each read
    # u_i = v_i / D_i comes as a `_Bound` N_i / D_i with ||v_i||_1 <= N_i,
    # v_i taken from the unscaled Poly loop (a non-real step in "mixed"
    # leaves nothing packed)
    rng = random.Random(seed)
    scheme = scheme_of_kind(rng, scheme_kind)
    pert = None if shape == "none" else random_perturbation(rng, 8 + shift, shape)
    read = data.draw(st.sets(st.integers(0, n), min_size=1))
    family = _Family(scheme, pert, ("first", "second"), shift, n, indices=sorted(read))
    if not family.integer:
        return
    for kind, bounds in zip(family.kinds, family.members()):
        exact = _unscaled(scheme, pert, kind, n, shift)
        assert [i for i, bound in enumerate(bounds) if bound is not None] == sorted(read)
        for i in read:
            v = exact[i] * bounds[i].den
            assert v.denominator == 1 and norm1(v) <= bounds[i].num


@pytest.mark.parametrize("pert, n, degree", [
    (None, 30, 30),
    (Perturbation.codil(1, Fraction(12, 5)), 6, 4),     # the leading coefficient cancels
    (Perturbation.corec(0, 10 ** 20), 12, 12),           # 67-bit coefficients
    (Perturbation.both(2, Fraction(1, 100), 6, Fraction(251, 250)), 40, 40),
    (None, 150, 150),
    (Perturbation.corec(0, 10 ** 40), 60, 60),          # 134-bit step coefficients
])
def test_packed_families_at_the_edges(cauchy, pert, n, degree):
    p, q = gen_both_kinds(cauchy, pert, n)
    assert list(p) == _unscaled(cauchy, pert, "first", n)
    assert list(q) == _unscaled(cauchy, pert, "second", n)
    assert family_ends(cauchy, pert, n) == (p[n], q[n])
    assert family_ends(cauchy, pert, n, ("second",)) == (q[n],)
    assert p[n].degree == degree
    if pert is None:
        assert p[n] == example_closed_form(n)


def test_eval_in_floating_point(cauchy):
    exact = eval_recurrence_at(cauchy, None, "first", 9, Fraction(1, 3))
    approx = eval_recurrence_at(cauchy, None, "first", 9, 1.0 / 3.0)
    assert abs(float(exact) - approx) < 1e-12


def _cache_perturbation(rng, shape, shift):
    """A perturbation of shape: a suites shape, or "same" (k = k'), "k0"
    (a co-recursion at 0) or "first" (k' at the first step of a family
    shifted by shift, where it is never applied)."""
    mu = random_rational(rng, nonzero=True)
    nu = random_rational(rng, low=1, high=8, positive=True)
    if shape == "same":
        level = rng.randint(1, 6)
        return Perturbation.both(level, mu, level, nu)
    if shape == "k0":
        return Perturbation.both(0, mu, rng.randint(1, 6), nu)
    if shape == "first":
        return Perturbation.codil(max(shift, 1), nu)
    return None if shape == "none" else random_perturbation(rng, 6 + shift, shape)


_POINTS = st.one_of(st.none(), st.integers(-5, 5),
                    st.fractions(min_value=-5, max_value=5, max_denominator=9),
                    st.builds(lambda re, im: GaussianRational(re, im).simplify(),
                              st.fractions(min_value=-3, max_value=3, max_denominator=5),
                              st.fractions(min_value=1, max_value=3, max_denominator=5)))


@pytest.mark.parametrize("scheme_kind", ["general", "special", "oprl", "gaussian", "mixed"])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32), n=st.integers(0, 8), shift=st.integers(0, 2),
       shape=st.sampled_from(("none", "corec", "codil", "both", "same", "k0", "first")),
       z=_POINTS)
def test_a_warm_step_table_gives_the_fresh_steps(scheme_of_kind, scheme_kind, seed, n, shift,
                                                 shape, z):
    # the table of a scheme that has built other families gives the same
    # bits as a fresh copy of the scheme, whose table starts empty: the step
    # terms at every level m a family or a continued fraction reads, and
    # each kind's family values
    rng = random.Random(seed)
    warm = scheme_of_kind(rng, scheme_kind)
    pert = _cache_perturbation(rng, shape, shift)
    gen_both_kinds(warm, None, n + shift + 2)
    gen_both_kinds(warm, random_perturbation(rng, 6), 6)
    family_ends(warm, pert, n + shift)

    def fresh():
        return scheme_of_kind(random.Random(seed), scheme_kind)

    none = Perturbation.none()
    for m in range(shift, shift + n + 1):
        expected = cleared_terms(fresh(), pert or none, m, z)
        assert cleared_terms(warm, pert or none, m, z) == expected
        if z is None:
            assert _step_terms(warm, pert or none, m) == expected
    kinds = ("first", "second")
    values = _Family(warm, pert, kinds, shift, n, z).values()
    expected = _Family(fresh(), pert, kinds, shift, n, z).values()
    assert values == expected
    assert [list(map(type, row)) for row in values] == [list(map(type, row))
                                                         for row in expected]


def test_a_warm_table_still_raises_past_its_end():
    # a shorter build fills the table; a longer one raises at the first index
    # past a tabulated entry, as a fresh scheme does, and naming the same table
    def scheme():
        return CoefficientScheme.general([1, 2, 1, 3, 1], [0, 1, -1, 2, 0, 1],
                                         [1, Fraction(1, 2), 2, 1, 3, 1, 2],
                                         [(0, 1)] * 7)

    def error(call):
        with pytest.raises(SchemeIndexError) as info:
            call()
        return info.value.name, info.value.index, info.value.size

    warm = scheme()
    for n in range(6):
        gen_both_kinds(warm, Perturbation.corec(1, 1), n)
    for call in (lambda s: gen_first_kind(s, None, 6),
                 lambda s: family_ends(s, Perturbation.codil(5, 2), 6),
                 lambda s: gen_associated(s, 1, 5),
                 lambda s: eval_recurrence_at(s, None, "second", 7, Fraction(1, 3))):
        assert error(lambda: call(warm)) == error(lambda: call(scheme())) == ("rho", 5, 5)
    # the rule at n = 5 reads rho_5 only in its calibration's lead chain,
    # after a rule at n = 4 has filled the table through rho_4
    special = CoefficientScheme.special([1, 2, 1, 3, 1], 0, Fraction(1, 4), 1)
    build_rule(special, None, 4)
    assert error(lambda: build_rule(special, None, 5)) == ("rho", 5, 5)
    # the lead chain reads rho_m, then lambda_m, one step after another: its
    # lambda table, shorter by one, runs out first
    short = CoefficientScheme.special([1, 2, 1, 3], 0, [0, 1, 1], 1)
    assert error(lambda: calibrate_m0(short, 4)) == ("lambda", 3, 3)
    calibrate_m0(short, 1)
    assert error(lambda: calibrate_m0(short, 4)) == ("lambda", 3, 3)
