"""Coefficient schemes, their weight factors, and perturbation bookkeeping."""

from fractions import Fraction

import pytest

from rii import (
    CoefficientScheme,
    Perturbation,
    PerturbationError,
    Poly,
    SchemeIndexError,
    cauchy_scheme,
    spectral_gap,
)
from rii.cfrac import convergent
from rii.sequences import eval_recurrence_at


def test_cauchy_scheme_coefficients(cauchy):
    assert cauchy.rho(0) == 1 and cauchy.rho(7) == 1
    assert cauchy.c(3) == 0
    assert cauchy.lam(1) == Fraction(1, 4)
    assert cauchy.weight_poly(2) == Poly((1, 0, 1))       # x^2 + 1
    assert cauchy.weight_at(2, Fraction(2)) == 5


def test_special_vs_general_vs_oprl_weights():
    special = CoefficientScheme.special(1, 0, Fraction(1, 4), omega=2)
    assert special.weight_poly(1) == Poly((4, 0, 1))
    general = CoefficientScheme.general(1, 0, 1, nodes=[(3, -3), (1, -2)])
    assert general.weight_poly(1) == Poly((-1, 1)) * Poly((2, 1))
    assert general.nodes(1) == (1, -2)
    oprl = CoefficientScheme.oprl(1, 2, 1)
    assert oprl.weight_poly(5) == Poly.one()


def test_constant_weight_poly_is_built_once():
    for scheme in (CoefficientScheme.special(1, 0, Fraction(1, 4), omega=2),
                   CoefficientScheme.oprl(1, 2, 1)):
        assert scheme.weight_poly(1) is scheme.weight_poly(7)
    special = CoefficientScheme.special(1, 0, 1, omega=Fraction(1, 2))
    assert special.weight_poly(3) == Poly((Fraction(1, 4), 0, 1))


def test_general_weight_poly_is_built_once_per_index():
    general = CoefficientScheme.general(1, 0, 1, nodes=[(1, 2), ([0, 1], [0, -1])])
    assert general.weight_poly(0) is general.weight_poly(0)
    assert general.weight_poly(1) is general.weight_poly(1)
    assert general.weight_poly(1) == Poly((1, 0, 1))


def test_gaussian_nodes_evaluate_at_float_and_complex_z(cauchy):
    # nodes +-i: the general form of the worked example, W = z^2 + 1
    general = CoefficientScheme.general(1, 0, Fraction(1, 4),
                                        nodes=[([0, 1], [0, -1])] * 12)
    pert = Perturbation.both(1, Fraction(1, 10), 3, Fraction(3, 2))
    for z in (0.5, 0.7 + 0.6j):
        w = general.weight_at(2, z)
        assert type(w) is type(z) and abs(w - cauchy.weight_at(2, z)) <= 1e-15 * abs(w)
        for kind in ("first", "second"):
            got = eval_recurrence_at(general, pert, kind, 6, z)
            want = eval_recurrence_at(cauchy, pert, kind, 6, z)
            assert abs(got - want) <= 1e-15 * abs(want)
        got = convergent(general, pert, 6, z)
        want = convergent(cauchy, pert, 6, z)
        assert abs(got - want) <= 1e-15 * abs(want)
    gaps = [spectral_gap(scheme, Perturbation.both(1, Fraction(1, 10), 2, Fraction(2)),
                         12, 11, 0.7 + 0.6j)
            for scheme in (general, cauchy)]
    assert abs(gaps[0] - gaps[1]) <= 1e-12 * gaps[1]


def test_sequence_coefficients_by_index():
    scheme = CoefficientScheme.special([1, 2, 3], [5, 6, 7], [0, Fraction(1, 2), 9],
                                       omega=1)
    assert scheme.rho(1) == 2
    assert scheme.c(2) == 7
    assert scheme.lam(1) == Fraction(1, 2)
    with pytest.raises(SchemeIndexError):
        scheme.rho(3)


def test_scheme_json_round_trip(cauchy):
    again = CoefficientScheme.from_json(cauchy.to_json())
    assert again.kind == cauchy.kind
    for n in range(5):
        assert again.rho(n) == cauchy.rho(n)
        assert again.c(n) == cauchy.c(n)
        assert again.weight_poly(n) == cauchy.weight_poly(n)
    assert again.lam(3) == cauchy.lam(3)


def test_perturbation_constructors_and_validation():
    p = Perturbation.corec(2, Fraction(1, 10))
    assert p.max_level() == 2 and p.kp is None
    b = Perturbation.both(1, Fraction(1, 2), 4, Fraction(2))
    assert b.max_level() == 4
    assert b.below(4) == Perturbation.corec(1, Fraction(1, 2))          # k < kp
    flip = Perturbation.both(4, Fraction(1, 2), 1, Fraction(2))
    assert flip.below(4) == Perturbation.codil(1, Fraction(2))          # k > kp
    assert b.below(5) == b and b.below(1) == Perturbation.none()
    same = Perturbation.both(3, Fraction(1, 2), 3, Fraction(2))
    assert same.below(3) == Perturbation.none() and same.below(4) == same   # k = kp
    assert p.below(2) == Perturbation.none() and p.below(3) == p          # one part
    d = Perturbation.codil(2, Fraction(3))
    assert d.below(2) == Perturbation.none() and d.below(3) == d
    with pytest.raises(PerturbationError):
        Perturbation.codil(0, Fraction(2))      # lambda_0 does not exist
    with pytest.raises(PerturbationError):
        Perturbation.corec(-1, Fraction(1, 2))
    with pytest.raises(PerturbationError):
        Perturbation.codil(2, Fraction(0))      # nu must stay positive
    with pytest.raises(PerturbationError):
        Perturbation(k=1)                       # mu missing


def test_perturbed_accessors(cauchy):
    p = Perturbation.both(1, Fraction(1, 10), 2, Fraction(3, 2))
    assert p.center(cauchy, 1) == Fraction(1, 10)          # c_1 + mu
    assert p.center(cauchy, 0) == 0
    assert p.coefficient(cauchy, 2) == Fraction(3, 8)      # nu * lambda_2
    assert p.coefficient(cauchy, 1) == Fraction(1, 4)


def test_perturbation_json_round_trip():
    p = Perturbation.both(1, Fraction(1, 10), 2, Fraction(3, 2))
    q = Perturbation.from_dict(p.to_dict())
    assert q == p
    assert p.to_dict() == {"corec": {"k": 1, "mu": "1/10"},
                           "codil": {"kp": 2, "nu": "3/2"}}
    assert Perturbation.from_dict({}) == Perturbation.none()
