"""Coefficient schemes, their weight factors, and perturbation bookkeeping."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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


def test_fraction_entries_are_taken_as_they_are(monkeypatch):
    # a table of Fractions is the table of the same values as strings, and
    # neither `_entry` nor `rational` is called for an entry that is a Fraction
    values = [Fraction(3, 2), Fraction(-7, 5), Fraction(0), Fraction(10 ** 30, 3)]
    texts = ["3/2", "-1.4", "0", "%d/3" % 10 ** 30]
    from_text = CoefficientScheme.oprl(texts, texts[0], texts)
    import rii.schemes

    def refuse(*args):
        raise AssertionError("a Fraction was coerced again")

    monkeypatch.setattr(rii.schemes, "_entry", refuse)
    from_fractions = CoefficientScheme.oprl(values, values[0], values)
    assert from_fractions.to_dict() == from_text.to_dict()
    assert [from_fractions.rho(m) for m in range(4)] == values
    monkeypatch.undo()
    # every other entry is still coerced, and refused by name
    with pytest.raises(TypeError, match="^rho: "):
        CoefficientScheme.oprl([Fraction(1), True], 0, 1)
    with pytest.raises(ValueError, match="^lambda: "):
        CoefficientScheme.oprl(1, 0, [Fraction(1), "abc"])


def test_scheme_json_round_trip(cauchy):
    again = CoefficientScheme.from_json(cauchy.to_json())
    assert again.kind == cauchy.kind
    for n in range(5):
        assert again.rho(n) == cauchy.rho(n)
        assert again.c(n) == cauchy.c(n)
        assert again.weight_poly(n) == cauchy.weight_poly(n)
    assert again.lam(3) == cauchy.lam(3)


@pytest.mark.parametrize("scheme_kind", ["general", "special", "oprl", "gaussian", "mixed"])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32))
def test_schemes_of_every_kind_round_trip(scheme_of_kind, scheme_kind, seed):
    scheme = scheme_of_kind(random.Random(seed), scheme_kind)
    data = json.loads(scheme.to_json())
    again = CoefficientScheme.from_dict(data)
    assert again.kind == scheme.kind and again.to_dict() == data
    # a "kind" that names the kind the fields give changes nothing; null is absent
    for kind in (scheme.kind, None):
        assert CoefficientScheme.from_dict(dict(data, kind=kind)).to_dict() == data
    for n in range(16):   # every tabulated index
        for name in ("rho", "c", "lam"):
            assert getattr(again, name)(n) == getattr(scheme, name)(n)
        assert again.weight_poly(n) == scheme.weight_poly(n)
    # a rule in place of any one table refuses serialization
    rules = {"rho": scheme.rho, "c": scheme.c, "lambda": scheme.lam}
    if scheme.kind == "general":
        rules["nodes"] = scheme.nodes
    for key, rule in rules.items():
        ruled = CoefficientScheme.from_dict(dict(data, **{key: rule}))
        with pytest.raises(ValueError, match="^rule-based (coefficients|nodes) are not "
                                             "serializable$"):
            ruled.to_dict()


def test_perturbation_constructors_and_validation():
    p = Perturbation.corec(2, Fraction(1, 10))
    assert p.max_level() == 2 and p.kp is None
    b = Perturbation.both(1, Fraction(1, 2), 4, Fraction(2))
    assert b.max_level() == 4
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
    # a JSON null part is an absent one
    assert Perturbation.from_dict({"corec": None, "codil": None}) == Perturbation.none()
