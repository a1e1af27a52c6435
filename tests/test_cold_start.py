"""Cold start: a command runs only the rii modules it calls.

Every submodule but `cli` is registered lazily by `rii/__init__.py`; its
body runs on the first attribute access, and from then on its type is
`types.ModuleType`.  Each test runs in a fresh interpreter, since the test
session itself has run every module.
"""

import functools
import json
import os
import subprocess
import sys

import pytest

import rii

SRC = os.path.dirname(os.path.dirname(rii.__file__))

# after the script below, the rii modules whose bodies have run
_RAN = ("sorted(k[4:] for k, m in sys.modules.items()"
        " if k.startswith('rii.') and type(m) is types.ModuleType)")


def _fresh(script):
    """What `script` prints as JSON on its last line, run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", "import sys, types\n" + script],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@functools.cache
def _ran_by(*argv):
    """(exit code, modules run) of `rii argv` in a fresh interpreter."""
    return tuple(_fresh(
        "import contextlib, io, json\n"
        "from rii.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(%r)\n"
        "print(json.dumps([code, %s]))\n" % (list(argv), _RAN)))


COMMON = ["cli", "errors", "exact", "poly", "schemes", "sequences"]
RULES = COMMON + ["quadrature"]
EXACT = COMMON + ["cfrac", "oprl", "polymat", "suites", "transfer"]

COMMANDS = {
    ("poly", "--n", "5", "--kind", "both"): COMMON,
    ("zeros", "--n", "6", "--mu", "0.1"): RULES,
    ("quad", "--n", "6", "--mu", "0.1"): RULES + ["integrands"],
    ("measure", "--n", "6", "--method", "spline"): RULES + ["density"],
    ("measure", "--n", "6", "--method", "lagrange"): RULES + ["density"],
    ("table", "--id", "t4"): RULES + ["integrands", "tables"],
    ("flip",): RULES + ["integrands", "tables"],
    ("check", "--suite", "all", "--instances", "1"): EXACT,
}


def test_importing_the_package_runs_no_submodule():
    assert _fresh("import json, rii\nprint(json.dumps(%s))" % _RAN) == []


@pytest.mark.parametrize("argv", list(COMMANDS), ids=" ".join)
def test_each_command_runs_only_the_modules_it_calls(argv):
    assert _ran_by(*argv) == (0, sorted(COMMANDS[argv]))


def test_check_runs_no_numeric_module():
    _code, ran = _ran_by("check", "--suite", "all", "--instances", "1")
    assert {"quadrature", "tables", "density", "integrands"}.isdisjoint(ran)


@pytest.mark.parametrize("argv", [("quad", "--n", "6", "--mu", "0.1"),
                                  ("zeros", "--n", "6", "--mu", "0.1"),
                                  ("table", "--id", "t4")], ids=" ".join)
def test_rules_run_no_identity_module(argv):
    _code, ran = _ran_by(*argv)
    assert {"suites", "cfrac", "transfer", "oprl", "density"}.isdisjoint(ran)


# the package's names, as they were when __init__ imported every module
NAMES = """
BUILTINS CoefficientScheme ComplexZerosError CorrectionReport DegeneracyError
DensityApprox E_REFERENCE FlipReport GaussianRational Homography Integrand
IntegrandError MobiusParams ParseError Perturbation PerturbationError PoleError
Poly PolyMatrix2 QuadratureRule RiiError SUITES SchemeIndexError
SingularReductionError SuiteResult TableReport build_rule calibrate_m0
cauchy_density cauchy_scheme convergent coprl_structural corrected_vs_flawed
estimate eval_recurrence_at eval_sequence_at exactness_check example_closed_form
f_matrix family_ends format_rational gen_associated gen_both_kinds
gen_first_kind gen_second_kind lagrange_density lambda_weight_product
lemma1_matrix lemma2_residual load_fixture mobius_check monic_associated
monic_sequence order_flip_experiment parse_integrand perturbation_transfer
perturbed_zeros rational real_zeros reduce_to_oprl reference_value_oracle
reproduce_table run_suite sample_density second_derivative_gaps simplify_scalar
spectral_gap spectral_residual spectral_transform spline_density step_matrix
structural_residual tail_convergent transfer_entries transfer_residual
weights_moment_formula weights_second_kind
""".split()
MODULES = ["cfrac", "density", "errors", "exact", "integrands", "oprl", "poly",
           "polymat", "quadrature", "schemes", "sequences", "suites", "tables",
           "transfer"]
# the defining module of each name that records none itself
CONSTANTS = {"BUILTINS": "integrands", "E_REFERENCE": "tables", "SUITES": "suites"}


def test_the_package_exports_every_name_from_its_defining_module():
    exported, homes, star = _fresh(
        "import json, rii\n"
        "homes = {}\n"
        "for name in rii.__all__:\n"
        "    value = getattr(rii, name)\n"
        "    if isinstance(value, types.ModuleType):\n"
        "        home, same = value.__name__, sys.modules[value.__name__] is value\n"
        "    else:\n"
        "        home = 'rii.' + %r[name] if name in %r else value.__module__\n"
        "        same = getattr(sys.modules[home], name) is value\n"
        "    homes[name] = [home, same]\n"
        "namespace = {}\n"
        "exec('from rii import *', namespace)\n"
        "print(json.dumps([rii.__all__, homes,\n"
        "                  sorted(k for k in namespace if k != '__builtins__')]))\n"
        % (CONSTANTS, list(CONSTANTS)))
    assert len(exported) == 91 and exported == sorted(NAMES + MODULES)
    assert all(same for _home, same in homes.values())
    assert {homes[name][0] for name in NAMES} == {"rii." + name for name in MODULES}
    assert all(homes[name][0] == "rii." + name for name in MODULES)
    assert star == exported


def test_the_suite_choices_are_the_suites():
    # the parser takes them from a constant, so building it runs no suite
    ran, choices, suites = _fresh(
        "import argparse, json\n"
        "from rii import cli\n"
        "parser = cli.build_parser()\n"
        "ran = %s\n"
        "sub, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))\n"
        "suite, = (a for a in sub.choices['check']._actions if a.dest == 'suite')\n"
        "from rii.suites import SUITES\n"
        "print(json.dumps([ran, list(suite.choices), sorted(SUITES)]))\n" % _RAN)
    assert ran == ["cli"]
    assert choices == suites + ["all"]
