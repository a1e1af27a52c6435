"""Moebius reduction to the real line and the monic correction demonstration."""

import random
from fractions import Fraction

import pytest

from rii import (
    CoefficientScheme,
    MobiusParams,
    Perturbation,
    PerturbationError,
    Poly,
    SingularReductionError,
    coprl_structural,
    corrected_vs_flawed,
    mobius_check,
    monic_associated,
    monic_sequence,
    reduce_to_oprl,
)
from rii.suites import random_scheme


def pinned_scheme():
    """Constant coefficients c = 2, rho = 1, lambda = 1, nodes a = b = 0."""
    return CoefficientScheme.general(1, 2, 1, nodes=lambda n: (0, 0))


def pinned_params():
    return MobiusParams(alpha=0, beta=-1, gamma=1, delta=0, a=0)


def test_pinned_reduction_values():
    reduced = reduce_to_oprl(pinned_scheme(), pinned_params(), 6)
    # alpha - gamma*c = -2 so rhohat = -2; chat = (0*2 - (-1))/(-2) = -1/2;
    # lamhat = 1*(beta - a*delta)^2 = 1
    assert reduced.rho(3) == -2
    assert reduced.c(3) == Fraction(-1, 2)
    assert reduced.lam(1) == 1
    assert reduced.kind == "oprl"
    assert reduced.weight_poly(4) == Poly.one()


def test_mobius_params_validation():
    with pytest.raises(ValueError):
        MobiusParams(alpha=1, beta=0, gamma=1, delta=0, a=0)   # singular
    with pytest.raises(ValueError):
        MobiusParams(alpha=1, beta=1, gamma=1, delta=1, a=0)   # alpha != gamma*a
    p = pinned_params()
    assert p.image(Fraction(2)) == Fraction(-1, 2)
    with pytest.raises(ZeroDivisionError):
        p.image(0)


def test_reduction_guards():
    params = pinned_params()
    with pytest.raises(ValueError):
        # nodes must sit at the constant a
        reduce_to_oprl(CoefficientScheme.general(1, 2, 1, nodes=lambda n: (1, 0)),
                       params, 4)
    with pytest.raises(ValueError):
        # beta = a*delta degenerates every lamhat
        reduce_to_oprl(pinned_scheme(),
                       MobiusParams(alpha=0, beta=0, gamma=1, delta=1, a=0), 4)
    with pytest.raises(SingularReductionError):
        # alpha - gamma*c_0 = 0 at the pinned parameters when c = 0
        reduce_to_oprl(CoefficientScheme.general(1, 0, 1, nodes=lambda n: (0, 0)),
                       params, 4)
    with pytest.raises(ValueError):
        reduce_to_oprl(CoefficientScheme.oprl(1, 0, 1), params, 4)


def test_mobius_check_is_an_equality():
    scheme, params = pinned_scheme(), pinned_params()
    for n in (0, 1, 2, 5, 8):
        lhs, rhs = mobius_check(scheme, params, n, Fraction(3, 7))
        assert lhs == rhs


def test_coprl_structural_residuals_vanish():
    reduced = reduce_to_oprl(pinned_scheme(), pinned_params(), 12)
    for pert in (Perturbation.corec(0, Fraction(1, 3)),
                 Perturbation.codil(2, Fraction(3, 2)),
                 Perturbation.both(1, Fraction(-2, 5), 4, Fraction(1, 2))):
        r1, r2 = coprl_structural(reduced, pert, 7, Fraction(2, 3))
        assert r1 == 0 and r2 == 0


def test_monic_sequence_and_associated():
    reduced = reduce_to_oprl(pinned_scheme(), pinned_params(), 10)
    plain = monic_sequence(reduced, 5)
    for n, p in enumerate(plain):
        assert p.degree == n
        assert p.leading() == 1
    assoc = monic_associated(reduced, 2, 4)
    for n, p in enumerate(assoc):
        assert p.degree == n and p.leading() == 1


def _hand_monic_sequence(oprl, n, k=None, mu=0, nu=1):
    """Reference: the monic recurrence written out as its own loop."""
    out = [Poly.one()]
    prev, cur = Poly.zero(), Poly.one()
    for j in range(n):
        center = oprl.c(j + 1)
        if k is not None and j == k:
            center = center + mu
        nxt = Poly((-center, 1)) * cur
        if j >= 1:
            lam = oprl.lam(j)
            if k is not None and j == k:
                lam = lam * nu
            nxt = nxt - lam * prev
        prev, cur = cur, nxt
        out.append(cur)
    return out


def _hand_monic_associated(oprl, order, n):
    """Reference: the order-shifted monic recurrence as its own loop."""
    out = [Poly.one()]
    prev, cur = Poly.zero(), Poly.one()
    for j in range(n):
        nxt = Poly((-oprl.c(j + order + 1), 1)) * cur
        if j >= 1:
            nxt = nxt - oprl.lam(j + order) * prev
        prev, cur = cur, nxt
        out.append(cur)
    return out


def test_monic_families_match_hand_loops():
    rng = random.Random("monic")
    schemes = [reduce_to_oprl(pinned_scheme(), pinned_params(), 12)]
    schemes += [random_scheme(rng, 12, "oprl") for _ in range(6)]
    for oprl in schemes:
        for n in range(7):
            assert monic_sequence(oprl, n) == _hand_monic_sequence(oprl, n)
            for order in range(4):
                assert monic_associated(oprl, order, n) == \
                    _hand_monic_associated(oprl, order, n)
            for k in (0, 1, 3):
                for mu, nu in ((Fraction(1, 3), 1), (0, Fraction(5, 2)),
                               (Fraction(-2, 7), Fraction(3, 4))):
                    assert monic_sequence(oprl, n, k, mu, nu) == \
                        _hand_monic_sequence(oprl, n, k, Fraction(mu), Fraction(nu))
                if k:   # nu scales a live lam_k, and must be positive
                    for nu in (0, -2):
                        with pytest.raises(PerturbationError):
                            monic_sequence(oprl, n, k, 1, nu)


def test_corrected_vs_flawed_discrepancy():
    reduced = reduce_to_oprl(pinned_scheme(), pinned_params(), 12)
    for k in (1, 2, 4):
        mu, nu = Fraction(1, 10), Fraction(9, 8)
        report = corrected_vs_flawed(reduced, k, mu, nu, Fraction(3, 4))
        assert report.corrected == report.direct
        # flawed - direct = -W_k(x) * (x - c_{k+1} - 1) exactly
        expected = Poly((-1,)) * report.correction * Poly(
            (-(reduced.c(k + 1) + 1), 1))
        assert report.discrepancy == expected
        assert not report.discrepancy.is_zero()
        assert report.flawed == report.direct + report.discrepancy(Fraction(3, 4))
    with pytest.raises(ValueError):
        corrected_vs_flawed(reduced, 0, mu, nu, Fraction(1, 2))
    with pytest.raises(PerturbationError):
        corrected_vs_flawed(reduced, 1, mu, 0, Fraction(1, 2))
