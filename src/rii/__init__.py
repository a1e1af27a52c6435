"""Recurrence identities, quadrature, and measure approximation for
R_II-type polynomial schemes under co-recursion and co-dilation.

The exact layer (schemes, sequences, transfer, cfrac, oprl) verifies the
perturbation identities in rational arithmetic; the numeric layer
(quadrature, tables, density) reproduces the bundled reference tables and
approximates the perturbed orthogonality measure.  `rii.cli` provides the
command-line front end (installed as `rii`).

Every submodule but `cli` is registered here unexecuted, through
`importlib.util.LazyLoader`: it sits in `sys.modules` and on the package
from the start, and its body runs on the first attribute access.  So a
command compiles and runs only the modules it calls: `rii check` never
runs quadrature, tables, density or integrands.  The names below resolve
through the module `__getattr__`, which loads their defining module.
`cli` stays an ordinary submodule, because `python -m rii.cli` runs it
with its own loader.
"""

import importlib.util
import sys

# defining module -> the names the package re-exports from it
_EXPORTS = {
    "cfrac": ("Homography", "convergent", "lemma1_matrix", "lemma2_residual",
              "spectral_gap", "spectral_residual", "spectral_transform",
              "tail_convergent"),
    "density": ("DensityApprox", "cauchy_density", "lagrange_density", "sample_density",
                "second_derivative_gaps", "spline_density"),
    "errors": ("ComplexZerosError", "DegeneracyError", "IntegrandError", "ParseError",
               "PerturbationError", "PoleError", "RiiError", "SchemeIndexError",
               "SingularReductionError"),
    "exact": ("GaussianRational", "format_rational", "rational", "simplify_scalar"),
    "integrands": ("BUILTINS", "Integrand", "parse_integrand"),
    "oprl": ("CorrectionReport", "MobiusParams", "coprl_structural", "corrected_vs_flawed",
             "mobius_check", "monic_associated", "monic_sequence", "reduce_to_oprl"),
    "poly": ("Poly",),
    "polymat": ("PolyMatrix2",),
    "quadrature": ("QuadratureRule", "build_rule", "calibrate_m0", "estimate",
                   "exactness_check", "perturbed_zeros", "real_zeros",
                   "weights_moment_formula", "weights_second_kind"),
    "schemes": ("CoefficientScheme", "Perturbation", "cauchy_scheme"),
    "sequences": ("eval_recurrence_at", "eval_sequence_at", "example_closed_form",
                  "family_ends", "gen_associated", "gen_both_kinds", "gen_first_kind",
                  "gen_second_kind"),
    "suites": ("SUITES", "SuiteResult", "run_suite"),
    "tables": ("E_REFERENCE", "FlipReport", "TableReport", "load_fixture",
               "order_flip_experiment", "reference_value_oracle", "reproduce_table"),
    "transfer": ("f_matrix", "lambda_weight_product", "perturbation_transfer",
                 "step_matrix", "structural_residual", "transfer_entries",
                 "transfer_residual"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_HOME])


def _register(name):
    """Submodule `name`, in sys.modules but unexecuted until first read."""
    spec = importlib.util.find_spec("." + name, __name__)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)     # the lazy loader only arms the module
    return module


for _name in _EXPORTS:
    globals()[_name] = _register(_name)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted({*globals(), *_HOME})
