"""One calling convention: a perturbation is one Perturbation (or None) argument.

Every public function that takes a perturbation takes it second, after the
scheme, and no public function takes its parts (mu, nu) as loose keywords.
The exceptions are Perturbation's own constructors and the monic
shifted-index demonstration, whose level k means center c_{k+1} and lam_k,
not c_k and lam_k; it builds its Perturbation itself.
"""

import importlib
import inspect
import pkgutil
from fractions import Fraction

import pytest

import rii
from rii import (CoefficientScheme, MobiusParams, Perturbation, cauchy_scheme,
                 coprl_structural, convergent, lemma1_matrix, perturbation_transfer,
                 perturbed_zeros, reduce_to_oprl, spectral_gap, spectral_residual, spectral_transform,
                 tail_convergent, transfer_entries, transfer_residual)
from rii.cfrac import singular_index
from rii.tables import estimate_cell

LOOSE_PARTS_ALLOWED = {
    "rii.schemes.Perturbation.__init__",
    "rii.schemes.Perturbation.corec",
    "rii.schemes.Perturbation.codil",
    "rii.schemes.Perturbation.both",
    "rii.oprl.monic_sequence",
    "rii.oprl.corrected_vs_flawed",
}


def _public_callables():
    """(qualified name, function, is_method) for every public function, public
    method and __init__ defined in a rii module."""
    for info in pkgutil.iter_modules(rii.__path__):
        module = importlib.import_module("rii." + info.name)
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield "%s.%s" % (module.__name__, name), obj, False
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    static = isinstance(member, staticmethod)
                    member = member.__func__ if static else member
                    if inspect.isfunction(member) and (
                            not attr.startswith("_") or attr == "__init__"):
                        yield ("%s.%s.%s" % (module.__name__, name, attr), member,
                               not static)


def test_no_public_function_takes_mu_or_nu():
    loose = sorted(name for name, fn, _ in _public_callables()
                   if {"mu", "nu"} & set(inspect.signature(fn).parameters)
                   and name not in LOOSE_PARTS_ALLOWED)
    assert loose == []


def test_the_perturbation_comes_second():
    misplaced = []
    for name, fn, is_method in _public_callables():
        params = list(inspect.signature(fn).parameters)
        if is_method:
            continue    # records list their fields in their own order
        for label in ("perturbation", "pert"):
            if label in params and params.index(label) != 1:
                misplaced.append(name)
    assert misplaced == []


SCHEME = cauchy_scheme()
REDUCED = reduce_to_oprl(CoefficientScheme.general(1, 2, 1, nodes=lambda n: (0, 0)),
                         MobiusParams(alpha=0, beta=-1, gamma=1, delta=0, a=0), 8)
PERT = Perturbation.both(1, Fraction(1, 5), 2, Fraction(6, 5))
Z = Fraction(5, 2)
CALLS = {
    "perturbation_transfer": (perturbation_transfer, (SCHEME, PERT)),
    "transfer_entries": (transfer_entries, (SCHEME, PERT)),
    "transfer_residual": (transfer_residual, (SCHEME, PERT, 4)),
    "lemma1_matrix": (lemma1_matrix, (SCHEME, PERT)),
    "spectral_transform": (spectral_transform, (SCHEME, PERT)),
    "spectral_residual": (spectral_residual, (SCHEME, PERT, 4, Z)),
    "spectral_gap": (spectral_gap, (SCHEME, PERT, 4, 5, Z)),
    "coprl_structural": (coprl_structural, (REDUCED, PERT, 4, Z)),
    "convergent": (convergent, (SCHEME, PERT, 4, Z)),
    "tail_convergent": (tail_convergent, (SCHEME, PERT, 0, 4, Z)),
    "singular_index": (singular_index, (SCHEME, PERT, 4)),
    "estimate_cell": (estimate_cell, (SCHEME, PERT, 4)),
    "perturbed_zeros": (perturbed_zeros, (SCHEME, PERT, 4)),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_identities_take_one_perturbation_and_reject_its_parts(name):
    fn, args = CALLS[name]
    fn(*args)
    for keyword in ("k", "kp", "mu", "nu"):
        with pytest.raises(TypeError):
            fn(*args, **{keyword: 1})
