"""Transfer matrices and the exact structural/transfer identities."""

import random
from fractions import Fraction

import pytest

import rii.sequences
from rii import (
    Perturbation,
    Poly,
    PolyMatrix2,
    cauchy_scheme,
    f_matrix,
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
    scaled_steps = rii.sequences.scaled_steps

    def counted(*args):
        calls.append(args)
        return scaled_steps(*args)

    monkeypatch.setattr(rii.sequences, "scaled_steps", counted)
    result = run_suite("transfer", seed=3, instances=6)
    assert result.ok() and len(calls) == 2 * 6
