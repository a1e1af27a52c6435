"""Continued-fraction convergents and the spectral transformation chain."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rii import (
    Perturbation,
    PoleError,
    cauchy_scheme,
    convergent,
    eval_sequence_at,
    lemma1_matrix,
    lemma2_residual,
    spectral_gap,
    spectral_residual,
    spectral_transform,
    tail_convergent,
)
from rii.cfrac import _continuants
from rii.sequences import center_term, weight_term
from rii.suites import random_perturbation, random_scheme
from rii.transfer import perturbation_transfer


def test_convergent_equals_qn_over_pn(cauchy):
    z = Fraction(3, 2)
    p = eval_sequence_at(cauchy, None, "first", 8, z)
    q = eval_sequence_at(cauchy, None, "second", 8, z)
    for depth in range(1, 9):
        assert convergent(cauchy, None, depth, z) == q[depth] / p[depth]
    assert convergent(cauchy, None, 0, z) == 0


def test_convergent_pole_is_detected(cauchy):
    # P_2 = (3z^2-1)/4 vanishes at z = 1/sqrt(3); rational z with P_1(z) = 0
    # is z = 0 (P_1 = z), a pole of the depth-1 convergent's denominator
    with pytest.raises(PoleError):
        convergent(cauchy, None, 1, Fraction(0))
    # float path returns a signed infinity instead
    import math

    assert math.isinf(convergent(cauchy, None, 1, 0.0))


def test_zero_partial_numerator_truncates(cauchy):
    # at z = +-i the special weight z^2+1 vanishes: exercised via the float
    # path of a general scheme whose node equals the evaluation point
    from rii import CoefficientScheme

    scheme = CoefficientScheme.general(1, 0, 1, nodes=[(2, -1)] * 8)
    z = Fraction(2)  # W_n(2) = 0 for every n
    value = convergent(scheme, None, 5, z)
    assert value == convergent(scheme, None, 1, z)


def test_tail_convergent_shifts_indices(cauchy):
    z = Fraction(5, 3)
    assert tail_convergent(cauchy, None, -1, 4, z) == convergent(cauchy, None, 4, z)
    assert tail_convergent(cauchy, None, 2, 0, z) == 0
    with pytest.raises(ValueError):
        tail_convergent(cauchy, None, -2, 1, z)


def test_lemma1_maps_tail_to_perturbed_fraction(cauchy):
    k, kp = 1, 3
    mu, nu = Fraction(1, 5), Fraction(7, 6)
    pert = Perturbation.both(k, mu, kp, nu)
    h = lemma1_matrix(cauchy, pert)
    z = Fraction(4, 3)
    for n in range(kp + 1, kp + 5):
        lhs = convergent(cauchy, pert, n, z)
        tail = tail_convergent(cauchy, None, kp, n - kp - 1, z)
        assert lhs == h.apply(tail, z)
    with pytest.raises(ValueError):
        lemma1_matrix(cauchy, Perturbation.both(4, mu, 2, nu))
    with pytest.raises(ValueError):
        lemma1_matrix(cauchy, None)


def test_lemma2_residual_vanishes(cauchy):
    z = Fraction(7, 4)
    for kp in (0, 1, 3):
        for n in range(kp + 1, kp + 4):
            assert lemma2_residual(cauchy, kp, n, z) == 0
    with pytest.raises(ValueError):
        lemma2_residual(cauchy, 3, 2, z)


def test_spectral_residual_matched_truncation(cauchy):
    cases = (
        Perturbation.corec(0, Fraction(1, 10)),
        Perturbation.codil(2, Fraction(5, 4)),
        Perturbation.both(1, Fraction(-1, 3), 3, Fraction(2, 3)),
    )
    for pert in cases:
        level = pert.max_level()
        for depth in (level + 1, level + 3):
            r = spectral_residual(cauchy, pert, depth, Fraction(5, 2))
            assert r == 0
    with pytest.raises(ValueError):
        spectral_residual(cauchy, Perturbation.corec(2, Fraction(1, 2)), 1, Fraction(1))


def test_spectral_gap_shrinks_with_depth(cauchy):
    # off the real axis the convergents actually converge; on the axis
    # (inside the support) they oscillate and the gap is meaningless
    pert = Perturbation.corec(1, Fraction(1, 4))
    gaps = [spectral_gap(cauchy, pert, d, 25, 0.7 + 0.6j) for d in (4, 10, 18)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-4


def test_spectral_transform_is_built_once_and_reused():
    rng = random.Random(4)
    for _ in range(6):
        scheme = random_scheme(rng, 12)
        pert = random_perturbation(rng, 4)
        transform = spectral_transform(scheme, pert)
        assert transform.matrix == perturbation_transfer(scheme, pert).cofactor_matrix()
        depth = pert.max_level() + 2
        for z in (Fraction(7, 3), Fraction(-5, 2), Fraction(9)):
            try:
                fresh = spectral_residual(scheme, pert, depth, z)
            except PoleError:
                with pytest.raises(PoleError):
                    spectral_residual(scheme, pert, depth, z, transform)
                continue
            assert fresh == spectral_residual(scheme, pert, depth, z, transform) == 0


def _fraction_continuants(scheme, pert, start, depth, z):
    """The level loop of `_continuants` on Fraction values, without integer
    scaling: (U_0, U_1), or PoleError at the index of a vanishing denominator."""
    lower, upper = Fraction(0), Fraction(1)
    for j in range(depth - 1, -1, -1):
        a = weight_term(scheme, pert, start + j + 1, z) if j < depth - 1 else 0
        b = center_term(scheme, pert, start + j, z)
        if a == 0:
            lower, upper = Fraction(1), b
        else:
            if upper == 0:
                raise PoleError(start + j + 1)
            lower, upper = upper, b * upper - a * lower
    if upper == 0:
        raise PoleError(start)
    return upper, lower


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32),
       kind=st.sampled_from(("general", "special", "oprl", "gaussian", "mixed")),
       shape=st.sampled_from((None, "corec", "codil", "both")),
       start=st.integers(0, 3), depth=st.integers(0, 10),
       z=st.one_of(st.integers(-4, 4),
                   st.fractions(min_value=-4, max_value=4, max_denominator=4)))
def test_continuants_on_integers_match_fraction_reference(scheme_of_kind, seed, kind, shape,
                                                          start, depth, z):
    # small coefficients and points make vanishing denominators common; a
    # complex-node scheme scales its non-real levels by 1
    rng = random.Random(seed)
    scheme = scheme_of_kind(rng, kind)
    pert = random_perturbation(rng, 6, shape) if shape else Perturbation.none()
    try:
        u0, u1 = _fraction_continuants(scheme, pert, start, depth, z)
    except PoleError as exc:
        with pytest.raises(PoleError) as raised:
            _continuants(scheme, pert, start, depth, z)
        assert raised.value.index == exc.index
        return
    v0, v1 = _continuants(scheme, pert, start, depth, z)
    # two ints at a real level on top, else the exact values
    assert (Fraction(v1, v0) if isinstance(v0, int) else v1 / v0) == u1 / u0
    assert tail_convergent(scheme, pert, start - 1, depth, z) == u1 / u0


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32),
       u=st.fractions(min_value=-4, max_value=4, max_denominator=6),
       z=st.one_of(st.integers(-4, 4),
                   st.fractions(min_value=-4, max_value=4, max_denominator=6)),
       at_pole=st.booleans())
def test_homography_on_integers_matches_fraction_values(seed, u, z, at_pole):
    rng = random.Random(seed)
    scheme = random_scheme(rng, 12)
    pert = random_perturbation(rng, 4)
    transform = spectral_transform(scheme, pert)
    (a, b), (c, d) = transform.matrix.eval_at(z)
    if at_pole and c != 0:
        u = -d / c
    if c * u + d == 0:
        with pytest.raises(PoleError):
            transform.apply(u, z)
        return
    assert transform.apply(u, z) == (a * u + b) / (c * u + d)
