"""Recurrence identities, quadrature, and measure approximation for
R_II-type polynomial schemes under co-recursion and co-dilation.

The exact layer (schemes, sequences, transfer, cfrac, oprl) verifies the
perturbation identities in rational arithmetic; the numeric layer
(quadrature, tables, density) reproduces the bundled reference tables and
approximates the perturbed orthogonality measure.  `rii.cli` provides the
command-line front end (installed as `rii`).
"""

from .cfrac import (Homography, convergent, lemma1_matrix, lemma2_residual,
                    spectral_gap, spectral_residual, spectral_transform,
                    tail_convergent)
from .density import (DensityApprox, cauchy_density, lagrange_density,
                      sample_density, second_derivative_gaps, spline_density)
from .errors import (ComplexZerosError, DegeneracyError, IntegrandError, ParseError,
                     PerturbationError, PoleError, RiiError,
                     SchemeIndexError, SingularReductionError)
from .exact import GaussianRational, format_rational, rational, simplify_scalar
from .integrands import BUILTINS, Integrand, parse_integrand
from .oprl import (CorrectionReport, MobiusParams, coprl_structural, corrected_vs_flawed,
                   mobius_check, monic_associated, monic_sequence, reduce_to_oprl)
from .poly import Poly
from .polymat import PolyMatrix2
from .quadrature import (QuadratureRule, build_rule, calibrate_m0, estimate,
                         exactness_check, perturbed_zeros, real_zeros,
                         weights_moment_formula, weights_second_kind)
from .schemes import CoefficientScheme, Perturbation, cauchy_scheme
from .sequences import (eval_recurrence_at, eval_sequence_at, example_closed_form,
                        family_ends, gen_associated, gen_both_kinds, gen_first_kind,
                        gen_second_kind)
from .suites import SUITES, SuiteResult, run_suite
from .tables import (E_REFERENCE, FlipReport, TableReport, load_fixture,
                     order_flip_experiment, reference_value_oracle,
                     reproduce_table)
from .transfer import (f_matrix, lambda_weight_product, perturbation_transfer,
                       step_matrix, structural_residual, transfer_entries,
                       transfer_residual)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
