"""Transfer matrices and the exact structural/transfer identities."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import rii.sequences
import rii.transfer
from rii import (
    Perturbation,
    Poly,
    PolyMatrix2,
    cauchy_scheme,
    f_matrix,
    gen_both_kinds,
    gen_first_kind,
    gen_second_kind,
    lambda_weight_product,
    perturbation_transfer,
    run_suite,
    step_matrix,
    structural_residual,
    transfer_entries,
    transfer_residual,
)
from rii.poly import norm1
from rii.sequences import center_term, weight_term
from rii.suites import random_perturbation, random_scheme


def test_step_matrix_determinants(cauchy):
    none = Perturbation.none()
    t0 = step_matrix(cauchy, none, 0)
    assert t0.det() == Poly.one()                       # the n = 0 step is unimodular
    t2 = step_matrix(cauchy, none, 2)
    assert t2.det() == Fraction(1, 4) * cauchy.weight_poly(2)


def test_f_matrix_rows_are_the_two_families(cauchy):
    pert = Perturbation.both(0, Fraction(1, 5), 2, Fraction(7, 8))
    n = 6
    f = f_matrix(cauchy, pert, n)
    p = gen_first_kind(cauchy, pert, n + 1)
    q = gen_second_kind(cauchy, pert, n + 1)
    assert f.a11 == p[n + 1]
    assert f.a12 == -q[n + 1]
    assert f.a21 == p[n]
    assert f.a22 == -q[n]
    assert f.det() == lambda_weight_product(cauchy, pert, n)


@pytest.mark.parametrize("kind", ["general", "special", "oprl"])
def test_f_matrix_is_the_step_matrix_product(kind):
    # F_{n+1} = T_n ... T_0, the transfer-matrix product, checked against the
    # matrix read off the two families
    rng = random.Random("f-matrix/" + kind)
    for _ in range(4):
        scheme = random_scheme(rng, 16, kind)
        for pert in (None, random_perturbation(rng, 12)):
            product = step_matrix(scheme, pert, 0)
            for n in range(13):
                if n:
                    product = step_matrix(scheme, pert, n) @ product
                assert f_matrix(scheme, pert, n) == product
    with pytest.raises(ValueError):
        f_matrix(cauchy_scheme(), None, -1)


def test_lambda_weight_product_is_unperturbed_for_none(cauchy):
    pert = Perturbation.codil(2, Fraction(2))
    plain = lambda_weight_product(cauchy, None, 4)
    scaled = lambda_weight_product(cauchy, pert, 4)
    assert scaled == 2 * plain


def test_transfer_entries_match_product_form(cauchy):
    for pert in (
        Perturbation.corec(2, Fraction(1, 3)),
        Perturbation.codil(3, Fraction(5, 4)),
        Perturbation.both(1, Fraction(-1, 2), 4, Fraction(1, 3)),
        Perturbation.both(2, Fraction(1, 7), 2, Fraction(9, 5)),
    ):
        assert transfer_entries(cauchy, pert) == perturbation_transfer(cauchy, pert)


def test_transfer_identity_as_exact_polynomials(cauchy):
    # both residuals of the transfer theorem vanish as polynomial matrices for
    # n >= m, for either order of k and kp; the empty perturbation gives zeros
    for pert in (Perturbation.both(1, Fraction(2, 3), 3, Fraction(3, 2)),
                 Perturbation.both(0, Fraction(1, 2), 3, Fraction(2, 3)),
                 Perturbation.both(4, Fraction(-1, 3), 2, Fraction(5, 4))):
        m = pert.max_level()
        for n in range(m, m + 4):
            entries, identity = transfer_residual(cauchy, pert, n)
            assert entries.is_zero() and identity.is_zero()
    for n in (0, 3):
        assert all(r.is_zero() for r in transfer_residual(cauchy, None, n))


def test_structural_residuals_vanish_beyond_gap_two(cauchy):
    # the regression shape: co-dilation far above the co-recursion level
    for k, kp in ((0, 2), (1, 4), (2, 6), (0, 5)):
        pert = Perturbation.both(k, Fraction(1, 5), kp, Fraction(4, 3))
        for n in range(kp, kp + 3):
            r1, r2 = structural_residual(cauchy, pert, n, Fraction(3, 7))
            assert r1 == 0 and r2 == 0


def test_structural_residual_pure_shapes(cauchy):
    z = Fraction(-2, 5)
    for pert in (Perturbation.corec(0, Fraction(1, 10)),
                 Perturbation.corec(3, Fraction(-2, 3)),
                 Perturbation.codil(1, Fraction(1, 2)),
                 Perturbation.both(2, Fraction(1, 6), 2, Fraction(5, 2))):
        for n in range(pert.max_level(), pert.max_level() + 3):
            r1, r2 = structural_residual(cauchy, pert, n, z)
            assert r1 == 0 and r2 == 0


def test_structural_residual_is_exact_at_inexact_points(cauchy):
    # evaluated at the exact point a float or complex z stores and rounded
    # once, so no rounding error survives into the residuals
    pert = Perturbation.both(1, Fraction(1, 5), 3, Fraction(6, 5))
    for z, zero in ((0.3, 0.0), (0.3 + 0.2j, 0j), (Fraction(3, 10), Fraction(0))):
        residuals = structural_residual(cauchy, pert, 6, z)
        assert residuals == (zero, zero)
        assert all(type(r) is type(zero) for r in residuals)


def test_transfer_residual_scalar_form(cauchy):
    # both residual matrices vanish at a rational point, for k = 0 < k' = 3
    pert = Perturbation.both(0, Fraction(1, 2), 3, Fraction(2, 3))
    for n in range(3, 7):
        for res in transfer_residual(cauchy, pert, n):
            assert all(v == 0 for row in res.eval_at(Fraction(5, 6)) for v in row)


def test_transfer_residual_rejects_small_n(cauchy):
    pert = Perturbation.codil(4, Fraction(3, 2))
    with pytest.raises(ValueError):
        transfer_residual(cauchy, pert, 2)


def test_identity_perturbation_gives_identity_matrix(cauchy):
    assert perturbation_transfer(cauchy, None) == PolyMatrix2.identity()
    assert transfer_entries(cauchy, None) == PolyMatrix2.identity()


def test_transfer_suite_builds_two_families_per_instance(monkeypatch):
    # one plain and one perturbed family, each one list of steps, serve both
    # residuals of an instance
    calls = []
    init = rii.sequences._Family.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(rii.sequences._Family, "__init__", counted)
    result = run_suite("transfer", seed=3, instances=6)
    assert result.ok() and len(calls) == 2 * 6


@pytest.mark.parametrize("kind", ["worked", "general", "special", "oprl"])
@pytest.mark.parametrize("pert, n", [
    (Perturbation.both(2, Fraction(1, 3), 5, Fraction(7, 4)), 6),
    (Perturbation.both(3, Fraction(-1, 2), 3, Fraction(2)), 3),     # k = k'
    (Perturbation.both(4, Fraction(5, 2), 1, Fraction(1, 3)), 5),   # k above k'
    (Perturbation.corec(0, Fraction(1, 10)), 2),
])
def test_one_transfer_check_builds_each_unperturbed_step_once(monkeypatch, kind, pert, n):
    # the plain family fills the scheme's step table and the perturbed one
    # reads it: only the steps at levels k and k' are built for it
    scheme = cauchy_scheme() if kind == "worked" else random_scheme(random.Random(n), 16, kind)
    built = []
    cleared = rii.sequences.cleared_terms

    def recording(scheme, pert, m, z):
        built.append((pert.max_level() >= 0, m))
        return cleared(scheme, pert, m, z)

    monkeypatch.setattr(rii.sequences, "cleared_terms", recording)
    assert all(r.is_zero() for r in transfer_residual(scheme, pert, n))
    assert [m for perturbed, m in built if not perturbed] == list(range(n + 1))
    assert sorted(m for perturbed, m in built if perturbed) == \
        sorted({pert.k, pert.kp} - {None})


def _reference_residual(scheme, pert, n):
    """transfer_residual as PolyMatrix2 arithmetic on Polys: both families in
    full, S as the product F*_{m+1}^T adj(F_{m+1})^T, the entry form through
    the explicit level-m step."""
    pert = pert or Perturbation.none()
    m = pert.max_level()
    p, q = gen_both_kinds(scheme, None, n + 1)
    ps, qs = gen_both_kinds(scheme, pert, n + 1)

    def f(p, q, j):
        return PolyMatrix2(p[j + 1], -q[j + 1], p[j], -q[j])

    if m < 0:
        s = entries = PolyMatrix2.identity()
    else:
        s = f(ps, qs, m).transpose() @ f(p, q, m).adjugate().transpose()
        a = center_term(scheme, pert, m)
        if m == 0:
            top_p, top_q = a * ps[0], Poly.one()
        else:
            b = weight_term(scheme, pert, m)
            top_p, top_q = a * ps[m] - b * ps[m - 1], a * qs[m] - b * qs[m - 1]
        entries = PolyMatrix2(-top_p * q[m] + ps[m] * q[m + 1],
                              -top_p * p[m] + ps[m] * p[m + 1],
                              top_q * q[m] - qs[m] * q[m + 1],
                              top_q * p[m] - qs[m] * p[m + 1])
    kappa = lambda_weight_product(scheme, None, m)
    return entries - s, f(ps, qs, n).transpose().scale(kappa) - s @ f(p, q, n).transpose()


def _draw_instance(rng, scheme_of_kind, kind, shape, flip, extra):
    """A scheme of kind, a perturbation of shape ("none", or one of the suites'
    shapes, with k above k' when flip) and n = m + extra."""
    scheme = scheme_of_kind(rng, kind)
    pert = None if shape == "none" else random_perturbation(rng, rng.randint(0, 10), shape)
    if flip and pert is not None and pert.kp is not None and (pert.k or 0) >= 1:
        pert = Perturbation.both(pert.kp, pert.mu, pert.k, pert.nu)
    m = (pert or Perturbation.none()).max_level()
    return scheme, pert, max(m, 0) + extra


@pytest.mark.parametrize("kind", ["general", "special", "oprl", "gaussian", "mixed"])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32), shape=st.sampled_from(("none", "corec", "codil", "both")),
       flip=st.booleans(), extra=st.integers(0, 3))
def test_packed_transfer_residual_is_the_poly_residual(scheme_of_kind, kind, seed, shape,
                                                       flip, extra):
    # on integer steps the residuals are decided at X = 2^B; a non-real step
    # ("gaussian", and "mixed" where one is read) takes the Poly form; either
    # way both are the PolyMatrix2 residuals, and zero: n = m at extra 0,
    # m = 0 where a co-recursion sits at level 0, k > k' with flip
    scheme, pert, n = _draw_instance(random.Random(seed), scheme_of_kind, kind, shape, flip,
                                     extra)
    residuals = transfer_residual(scheme, pert, n)
    assert all(type(r) is PolyMatrix2 for r in residuals)
    assert residuals == _reference_residual(scheme, pert, n)
    assert all(r.is_zero() for r in residuals)


def test_packed_transfer_residual_covers_the_edge_levels(cauchy):
    for pert, n in ((Perturbation.corec(0, Fraction(1, 3)), 0),
                    (Perturbation.corec(0, Fraction(-7, 2)), 2),
                    (Perturbation.both(5, Fraction(2, 9), 2, Fraction(7, 4)), 5),
                    (Perturbation.codil(1, Fraction(9, 8)), 1),
                    (None, 0)):
        residuals = transfer_residual(cauchy, pert, n)
        assert residuals == _reference_residual(cauchy, pert, n)
        assert all(r.is_zero() for r in residuals)


def _shifted_center(level, shift):
    """The family step terms (`_step_terms`) with the center of step `level`
    moved by shift / rho_level in every perturbed family, so the perturbed
    family breaks there while the explicit steps of the entry form do not."""
    step_terms = rii.sequences._step_terms

    def broken(scheme, pert, m):
        s, a, b = step_terms(scheme, pert, m)
        if m == level and pert.max_level() >= 0:
            a = a + shift * s
        return s, a, b
    return broken


@pytest.mark.parametrize("kind", ["general", "special", "oprl", "gaussian"])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32), shape=st.sampled_from(("corec", "codil", "both")),
       extra=st.integers(0, 3), data=st.data())
def test_a_broken_family_gives_the_poly_residual_exactly(scheme_of_kind, kind, seed, shape,
                                                         extra, data):
    # a center shifted at level L >= m in the perturbed family alone breaks
    # the theorem (below m it is one more perturbation, which S absorbs): the
    # residual is not zero, and packed it is still the PolyMatrix2 residual
    scheme, pert, n, broken = _broken_instance(scheme_of_kind, kind, seed, shape, extra, data)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rii.sequences, "_step_terms", broken)
        residuals = transfer_residual(scheme, pert, n)
        assert residuals == _reference_residual(scheme, pert, n)
    assert not all(r.is_zero() for r in residuals)


def _broken_instance(scheme_of_kind, kind, seed, shape, extra, data):
    """A drawn instance (`_draw_instance`, unflipped) and the step terms
    that break its perturbed family at a drawn level L >= m."""
    scheme, pert, n = _draw_instance(random.Random(seed), scheme_of_kind, kind, shape, False,
                                     extra)
    level = data.draw(st.integers(pert.max_level(), n))
    shift = data.draw(st.sampled_from((1, -2, 7, 10 ** 6)))
    return scheme, pert, n, _shifted_center(level, shift)


@pytest.mark.parametrize("kind", ["general", "special", "oprl"])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32), shape=st.sampled_from(("corec", "codil", "both")),
       extra=st.integers(0, 3), data=st.data())
def test_each_broken_residual_is_within_its_bound(scheme_of_kind, kind, seed, shape, extra,
                                                  data):
    # the width's proof obligation on the residuals that are not zero: each
    # entry R/d that transfer_residual unpacks has ||R||_1 at most the bound
    # it packs by, over the same d
    scheme, pert, n, broken = _broken_instance(scheme_of_kind, kind, seed, shape, extra, data)
    decided = rii.transfer._decided
    seen = []

    def recording(expression):
        entries = decided(expression)
        seen.append((expression(None), entries))
        return entries

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rii.sequences, "_step_terms", broken)
        patch.setattr(rii.transfer, "_decided", recording)
        transfer_residual(scheme, pert, n)
    [(bounds, entries)] = seen
    for bound_row, entry_row in zip(bounds, entries):
        for bound, entry in zip(bound_row, entry_row):
            numerator = entry * bound.den
            assert numerator.denominator == 1 and norm1(numerator) <= bound.num


def test_a_broken_family_at_its_widest_coefficients():
    # a broken instance whose residual numerator has a coefficient of at
    # least 2^(B-9): packed 8 bits narrower than B, its digits are misread
    scheme = random_scheme(random.Random("broken-width/0"), 18, "oprl")
    pert = Perturbation.both(2, Fraction(-3, 4), 4, Fraction(5, 2))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rii.sequences, "_step_terms", _shifted_center(5, 10 ** 6))
        residuals = transfer_residual(scheme, pert, 6)
        assert residuals == _reference_residual(scheme, pert, 6)
    assert not all(r.is_zero() for r in residuals)
