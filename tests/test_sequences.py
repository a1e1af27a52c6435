"""Polynomial families of the recurrence: values pinned by hand."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rii import (
    GaussianRational,
    Perturbation,
    Poly,
    cauchy_scheme,
    eval_recurrence_at,
    eval_sequence_at,
    example_closed_form,
    gen_associated,
    gen_both_kinds,
    gen_first_kind,
    gen_second_kind,
)
from rii.sequences import center_term, iterate, weight_term
from rii.suites import random_perturbation, random_scheme


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


def test_eval_in_floating_point(cauchy):
    exact = eval_recurrence_at(cauchy, None, "first", 9, Fraction(1, 3))
    approx = eval_recurrence_at(cauchy, None, "first", 9, 1.0 / 3.0)
    assert abs(float(exact) - approx) < 1e-12
