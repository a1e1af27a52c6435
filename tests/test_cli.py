"""Command-line interface: contracts, formats, exit codes, determinism."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import rii
from rii import Perturbation, cauchy_scheme
from rii.cli import ExperimentConfig, main
from rii.sequences import family_ends
from rii.suites import SUITES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_pins_blas_threads_unless_set(capsys, monkeypatch):
    # an absent variable is set to one thread; a value the user set is kept
    from rii.cli import THREAD_VARS

    kept, *absent = THREAD_VARS
    monkeypatch.setenv(kept, "3")
    for name in absent:
        monkeypatch.setenv(name, "")    # so that teardown restores the original
        monkeypatch.delenv(name)
    assert run_cli(capsys, "poly", "--n", "1")[0] == 0
    assert [os.environ.get(name) for name in THREAD_VARS] == ["3", "1", "1"]


def test_quad_pinned_value(capsys):
    code, out, err = run_cli(capsys, "quad", "--n", "4", "--mu", "0.1",
                             "--k", "0", "--integrand", "example3")
    assert code == 0 and err == ""
    assert abs(float(out.strip()) - 0.5444480269) < 1e-6


def test_quad_csv_and_json(capsys):
    code, out, _ = run_cli(capsys, "quad", "--n", "4", "--mu", "0.1", "--k", "0",
                           "--out", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert list(rows[0]) == ["n", "mu", "k", "nu", "kp", "I_star"]
    assert rows[0]["n"] == "4" and rows[0]["mu"] == "1/10"
    code, out, _ = run_cli(capsys, "quad", "--n", "4", "--mu", "0.1", "--k", "0",
                           "--out", "json")
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert abs(doc["results"][0]["I_star"] - 0.5444480269) < 1e-6


def test_poly_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "poly", "--n", "2", "--kind", "both")
    assert code == 0
    assert out.startswith("P_2(x) = ")
    assert "Q_2(x) = " in out
    code, out, _ = run_cli(capsys, "poly", "--n", "2", "--out", "json")
    doc = json.loads(out)
    assert doc["polynomials"][0]["coefficients"] == ["-1/4", "0", "3/4"]


def test_zeros_match_cotangents(capsys):
    import math

    code, out, _ = run_cli(capsys, "zeros", "--n", "4")
    assert code == 0
    zeros = [float(line) for line in out.split()]
    expected = sorted(1 / math.tan(j * math.pi / 5) for j in range(1, 5))
    assert max(abs(z - e) for z, e in zip(zeros, expected)) < 1e-9


def test_zeros_complex_guard_exits_one(capsys):
    code, out, err = run_cli(capsys, "zeros", "--n", "18", "--nu", "2.12", "--kp", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "complex zero" in err


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table"])                      # --id is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["table", "--id", "t9"])        # not a known table
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])                             # a subcommand is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["quad", "--n", "4", "--method", "moment"])   # one weight formula, no option
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--precision", "-3", "quad", "--n", "4"])     # no digits to print
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--precision", str(2 ** 31), "quad", "--n", "4"])   # "%.*g" takes a C int
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["zeros", "--n", "4", "--tol-imag", "1e-9"])   # one zero finder, no override
    assert exc.value.code == 2
    capsys.readouterr()


def test_the_largest_precision_prints_every_digit(capsys):
    # a float's exact decimal expansion, no more: "%.*g" drops trailing zeros
    code, out, err = run_cli(capsys, "--precision", str(2 ** 31 - 1), "quad", "--n", "3")
    assert (code, err) == (0, "")
    assert Fraction(out.strip()) == Fraction(float(out))


def test_bad_integrand_exits_one(capsys):
    code, _out, err = run_cli(capsys, "quad", "--n", "4", "--integrand", "2+")
    assert code == 1
    assert err.startswith("error: ")


def test_table_csv_contract(capsys):
    code, out, _ = run_cli(capsys, "table", "--id", "t5")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert list(rows[0]) == ["n", "mu", "k", "nu", "kp", "I_star",
                             "paper_value", "abs_dev"]
    assert len(rows) == 5
    # labels are reported as printed in the reference fixture
    assert rows[0]["k"] == "3" and rows[0]["kp"] == "7"
    assert rows[0]["paper_value"] == "0.6135307050"
    assert float(rows[0]["abs_dev"]) < 1e-4


def test_table_t4_meets_node_tolerance(capsys):
    code, out, _ = run_cli(capsys, "table", "--id", "t4")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 10
    for row in rows:
        assert abs(float(row["node"]) - float(row["node_paper"])) < 1e-8
        assert abs(float(row["weight"]) - float(row["weight_paper"])) < 1e-8


def test_table_text_adds_summary_line(capsys):
    code, out, _ = run_cli(capsys, "table", "--id", "t2", "--out", "text")
    assert code == 0
    assert "# max |computed - reference| =" in out


def test_byte_determinism(capsys):
    _, first, _ = run_cli(capsys, "table", "--id", "t3")
    _, second, _ = run_cli(capsys, "table", "--id", "t3")
    assert first == second
    _, a, _ = run_cli(capsys, "check", "--suite", "structural", "--seed", "7",
                      "--instances", "5")
    _, b, _ = run_cli(capsys, "check", "--suite", "structural", "--seed", "7",
                      "--instances", "5")
    assert a == b


def test_check_reports_zero_failures(capsys):
    code, out, _ = run_cli(capsys, "check", "--suite", "structural", "--seed", "7",
                           "--instances", "10")
    assert code == 0
    assert out.strip() == "structural: 10 instances, 0 failures"


def test_check_prints_failures_and_exits_one(monkeypatch, capsys):
    def spoiled(rng, i, result):
        result.failures.append({"kind": "spoiled", "instance": i})

    monkeypatch.setitem(SUITES, "transfer", (spoiled, 100))
    code, out, err = run_cli(capsys, "check", "--suite", "all", "--instances", "7")
    assert code == 1 and err == ""
    lines = out.splitlines()
    start = lines.index("transfer: 7 instances, 7 failures")
    # at most five records are printed
    assert lines[start + 1:start + 6] == [
        '  failure: {"instance": %d, "kind": "spoiled"}' % i for i in range(5)]
    assert sum(line.startswith("  failure: ") for line in lines) == 5


def test_measure_csv(capsys):
    code, out, _ = run_cli(capsys, "measure", "--n", "6", "--method", "spline",
                           "--samples", "9", "--x-min", "-5", "--x-max", "5")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert list(rows[0]) == ["x", "density", "flag"]
    assert len(rows) == 9
    assert rows[0]["flag"] == "extrapolated"      # -5 lies outside the knots
    mid = rows[4]
    assert mid["flag"] == ""


def test_flip_json(capsys):
    code, out, _ = run_cli(capsys, "flip", "--pairs", "4:6", "--n", "8",
                           "--out", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["median_level"] == 5
    assert len(doc["rows"]) == 2
    assert {"I_star", "dev", "k", "kp", "mu", "nu"} <= set(doc["rows"][0])


def test_flip_bad_pairs_exits_one(capsys):
    code, _out, err = run_cli(capsys, "flip", "--pairs", "3-7")
    assert code == 1
    assert "expects" in err


def test_precision_flag_changes_digits(capsys):
    _, ten, _ = run_cli(capsys, "quad", "--n", "4", "--mu", "0.1", "--k", "0")
    _, four, _ = run_cli(capsys, "--precision", "4", "quad", "--n", "4",
                         "--mu", "0.1", "--k", "0")
    assert len(four.strip()) < len(ten.strip())
    assert four.strip() == "0.5444"


def test_scheme_inline_json_and_file(tmp_path, capsys):
    text = cauchy_scheme().to_json()
    code, out_inline, _ = run_cli(capsys, "poly", "--n", "2", "--scheme", text)
    assert code == 0
    path = tmp_path / "scheme.json"
    path.write_text(text, encoding="utf-8")
    code, out_file, _ = run_cli(capsys, "poly", "--n", "2", "--scheme", str(path))
    assert code == 0
    assert out_inline == out_file


def test_config_round_trip_and_quad(tmp_path, capsys):
    config = ExperimentConfig(
        scheme=cauchy_scheme(),
        perturbations=(Perturbation.corec(0, Fraction(1, 10)),),
        n_values=(4, 6),
        integrand="example3",
        out="csv",
    )
    again = ExperimentConfig.from_json(config.to_json())
    assert again == config
    path = tmp_path / "experiment.json"
    path.write_text(config.to_json(), encoding="utf-8")
    code, out, _ = run_cli(capsys, "quad", "--config", str(path))
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["n"] for row in rows] == ["4", "6"]
    assert abs(float(rows[0]["I_star"]) - 0.5444480269) < 1e-6


def test_config_schema_guard():
    doc = json.loads(ExperimentConfig(scheme=cauchy_scheme(),
                                      perturbations=(), n_values=(4,)).to_json())
    doc["schema"] = 99
    with pytest.raises(ValueError):
        ExperimentConfig.from_json(json.dumps(doc))


@pytest.mark.parametrize("document", [
    [1],
    {"schema": 1},
    {"schema": 1, "scheme": cauchy_scheme().to_dict(), "perturbations": [[0]], "n": [4]},
    {"schema": 1, "scheme": [], "perturbations": [], "n": [4]},
    {"schema": 1, "scheme": cauchy_scheme().to_dict(),
     "perturbations": [{"corec": {"k": 0, "mu": "1/0"}}], "n": [4]},
    {"schema": 1, "scheme": cauchy_scheme().to_dict(), "perturbations": [], "n": [4],
     "integrand": 5},
    {"schema": 1, "scheme": cauchy_scheme().to_dict(), "perturbations": [], "n": [4],
     "out": "xml"},
    # sizes and levels are integers: a fraction or a bool is not truncated
    {"schema": 1, "scheme": cauchy_scheme().to_dict(), "perturbations": [], "n": [4.7]},
    {"schema": 1, "scheme": cauchy_scheme().to_dict(), "perturbations": [], "n": [True]},
    {"schema": 1, "scheme": cauchy_scheme().to_dict(), "perturbations": [], "n": [1e400]},
    {"schema": 1, "scheme": cauchy_scheme().to_dict(),
     "perturbations": [{"corec": {"k": 1.9, "mu": "1/100"}}], "n": [4]},
    {"schema": 1, "scheme": cauchy_scheme().to_dict(),
     "perturbations": [{"codil": {"kp": 2.5, "nu": "2"}}], "n": [4]},
    {"schema": 1, "scheme": cauchy_scheme().to_dict(),
     "perturbations": [{"corec": {"k": False, "mu": "1/100"}}], "n": [4]},
    # sizes and perturbations are arrays: a string or an object is not iterated
    {"schema": 1, "scheme": cauchy_scheme().to_dict(), "perturbations": [], "n": "12"},
    {"schema": 1, "scheme": cauchy_scheme().to_dict(), "perturbations": {}, "n": [4]},
    # an experiment with no sizes would run nothing
    {"schema": 1, "scheme": cauchy_scheme().to_dict(), "perturbations": [], "n": []},
])
def test_malformed_config_exits_one(tmp_path, capsys, document):
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    code, out, err = run_cli(capsys, "quad", "--config", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", ["[" * 100000 + "]" * 100000,
                                  '{"a": ' * 100000 + "1" + "}" * 100000])
def test_json_nested_beyond_the_decoder_exits_one(tmp_path, capsys, text):
    # a scheme inline and in a file, and a config
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    for argv in (("zeros", "--n", "3", "--scheme", text),
                 ("zeros", "--n", "3", "--scheme", str(path)),
                 ("quad", "--config", str(path))):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: malformed ") and err.count("\n") == 1
        assert "maximum recursion depth" in err


@pytest.mark.parametrize("argv", [
    ("poly", "--n", "-3"),
    ("zeros", "--n", "-3"),
    ("quad", "--n", "0"),
    ("flip", "--n", "-3"),
    ("quad", "--n", "4", "--integrand", "1/(x-x)"),
    ("quad", "--n", "4", "--integrand", "x^x"),
    ("quad", "--n", "3", "--mu", "1/0"),
    ("quad", "--n", "3", "--nu", "1/0"),
    ("zeros", "--n", "3", "--mu", "1/0"),
    ("poly", "--n", "3", "--nu", "1/0"),
    ("measure", "--n", "3", "--mu", "1/0"),
    ("flip", "--mu", "1/0"),
    ("check", "--suite", "all", "--instances", "-1"),
    ("check", "--suite", "oprl", "--instances", "0"),
    ("zeros", "--n", "3", "--scheme",
     '{"rho": 1, "c": 0, "lambda": "1/4", "nodes": [[[0, 1], [0, 2]], [[0, 1], [0, 2]],'
     ' [[0, 1], [0, 2]], [[0, 1], [0, 2]]]}'),
    # perturbed: the unperturbed weights are all 1/11, so its interpolant is constant
    ("measure", "--n", "10", "--mu", "0.01", "--k", "0", "--x-min", "0", "--x-max", "1e300",
     "--samples", "3"),
    ("measure", "--n", "10", "--x-min", "0", "--x-max", "1e300", "--samples", "3",
     "--method", "spline", "--out", "json"),
    ("poly", "--n", "2", "--scheme", '{"rho": "1/0", "c": 0, "lambda": 1}'),
    ("poly", "--n", "2", "--scheme", '{"rho": 1, "c": 0, "lambda": 1, "nodes": [["1/0", 0]]}'),
    ("poly", "--n", "2", "--scheme", '{"rho": 1, "c": Infinity, "lambda": 1}'),
    # nu_1 = 2.12 leaves B of the pencil indefinite, and P*_18 has a conjugate
    # pair of zeros
    ("zeros", "--n", "18", "--nu", "2.12"),
    ("quad", "--n", "18", "--nu", "2.12"),
    # the leading coefficient of P*_n vanishes: degree 4 at n = 6, 0 at n = 2
    ("quad", "--n", "6", "--nu", "12/5"),
    ("zeros", "--n", "2", "--nu", "4"),
    # nested deeper than the parser allows: in the parser, then in the evaluator
    ("quad", "--n", "4", "--integrand", "(" * 500 + "x" + ")" * 500),
    ("quad", "--n", "4", "--integrand", "+".join(["x"] * 3000)),
    # no pair off the median level leaves no flipped row to average
    ("flip", "--pairs", "1:1"),
    # a coefficient of P*_n beyond the float range
    ("quad", "--n", "4", "--mu", "1e400"),
    ("zeros", "--n", "4", "--mu", "1e400"),
    ("measure", "--n", "4", "--mu", "1e400"),
    ("flip", "--mu", "1e400"),
    # P_2 = 2^-1060 x^2 - x - 1 has a zero near 2^1060, beyond the float range
    ("zeros", "--n", "2", "--scheme", json.dumps(
        {"rho": [1, "1/%d" % 2 ** 1060], "c": [str(2 ** 1060), 0], "lambda": [0, 1]})),
    # P*_4 has a zero at 1.6e200, where the default integrand overflows
    ("quad", "--n", "4", "--mu", "1e200"),
    # P_2 = 10^-800 x^2 - 1: its lead underflows a float, and its zeros
    # +-1e400 are beyond the float range; rho < 0 leaves no definite pencil,
    # so the Sturm chain is tried, and there is no 0-node rule
    ("zeros", "--n", "2", "--scheme", '{"rho": "-1e-400", "c": 0, "lambda": 1}'),
    ("quad", "--n", "2", "--integrand", "1", "--scheme",
     '{"rho": "-1e-400", "c": 0, "lambda": 1}'),
])
@pytest.mark.filterwarnings("error")    # nor a warning
def test_domain_failures_exit_one_without_traceback(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("scheme, entry", [
    ('{"rho": 1, "c": 0, "lambda": 1, "nodes": [[1, 2, 3]]}', "nodes[0]"),
    ('{"rho": 1, "c": 0, "lambda": 1, "nodes": [[1]]}', "nodes[0]"),
    ('{"rho": 1, "c": 0, "lambda": 1, "nodes": [[0, 0], [true, 0]]}', "nodes[1]"),
    ('{"rho": 1, "c": 0, "lambda": 1, "nodes": "ab"}', "nodes"),
    ('{"rho": true, "c": 0, "lambda": 1}', "rho"),
    ('{"rho": 1, "c": [0, false], "lambda": 1}', "c"),
    ('{"rho": 1, "c": 0, "lambda": 1, "omega": true}', "omega"),
    ('{"rho": 1, "c": 0, "lambda": 1, "omega": [1]}', "omega"),
    ('{"rho": "1/0", "c": 0, "lambda": 1}', "rho"),
    ('{"rho": "abc", "c": 0, "lambda": 1}', "rho"),
    ('{"rho": 1, "c": [0, "abc"], "lambda": 1}', "c"),
    ('{"rho": 1, "c": 0, "lambda": "abc"}', "lambda"),
    ('{"rho": 1, "c": 0, "lambda": 1, "omega": "abc"}', "omega"),
    ('{"rho": 1, "c": 0, "lambda": 1, "nodes": [[0, "abc"]]}', "nodes[0]"),
    ('{"rho": 1, "c": 0, "lambda": 1, "nodes": [[0, 0], [["1/0", 1], 0]]}', "nodes[1]"),
])
def test_malformed_scheme_entries_exit_one_by_name(capsys, scheme, entry):
    code, out, err = run_cli(capsys, "poly", "--n", "2", "--scheme", scheme)
    assert (code, out) == (1, "")
    assert err.startswith("error: malformed scheme: %s" % entry) and err.count("\n") == 1


@pytest.mark.parametrize("argv, flag", [
    (("quad", "--n", "4", "--mu", "abc"), "--mu"),
    (("zeros", "--n", "4", "--nu", "1/0"), "--nu"),
    (("measure", "--n", "4", "--mu", "1e"), "--mu"),
    (("flip", "--nu", "abc"), "--nu"),
])
def test_a_bad_mu_or_nu_flag_exits_one_by_name(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: %s: " % flag) and err.count("\n") == 1


@pytest.mark.parametrize("fields, message", [
    ('"kind": "special"', "kind 'special' needs omega"),
    ('"kind": "special", "nodes": [[0, 0]]', "kind 'special' needs omega"),
    ('"kind": "general", "omega": 1', "kind 'general' needs nodes"),
    ('"kind": "oprl", "omega": 1', "kind 'oprl' takes neither omega nor nodes"),
    ('"kind": "oprl", "nodes": [[0, 0]]', "kind 'oprl' takes neither omega nor nodes"),
    ('"kind": "cauchy", "omega": 1', "unknown scheme kind 'cauchy'"),
    ('"kind": [1]', "unknown scheme kind [1]"),
    ('"omega": 1, "nodes": [[0, 0]]', "a scheme has omega or nodes, not both"),
])
def test_a_scheme_kind_that_disagrees_with_its_fields_is_refused(capsys, fields, message):
    scheme = '{"rho": 1, "c": 0, "lambda": "1/4", %s}' % fields
    assert run_cli(capsys, "zeros", "--n", "3", "--scheme", scheme) == (
        1, "", "error: malformed scheme: %s\n" % message)


@pytest.mark.parametrize("perturbations, field", [
    # a JSON true is not a rational (TypeError) ...
    ([{"corec": {"k": 0, "mu": True}}], "perturbations[0].mu"),
    ([{"corec": {"k": 0, "mu": "1/100"}}, {"codil": {"kp": 1, "nu": True}}],
     "perturbations[1].nu"),
    # ... nor is a string that does not parse as one (ValueError)
    ([{"corec": {"k": 0, "mu": "abc"}}], "perturbations[0].mu"),
    ([{"codil": {"kp": 1, "nu": "1/0"}}], "perturbations[0].nu"),
])
def test_a_bad_mu_or_nu_in_a_config_exits_one_by_name(tmp_path, capsys, perturbations,
                                                       field):
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps({"schema": 1, "scheme": cauchy_scheme().to_dict(),
                                "perturbations": perturbations, "n": [4]}),
                    encoding="utf-8")
    code, out, err = run_cli(capsys, "quad", "--config", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: %s: " % field) and err.count("\n") == 1


@pytest.mark.parametrize("perturbations, message", [
    ([[0]], "perturbations[0] must be an object, got [0]"),
    ([{"corec": {"mu": "1/2"}}], "perturbations[0].corec lacks k"),
    ([{"corec": {"k": 0, "mu": "1/2"}}, {"codil": {"kp": 2}}],
     "perturbations[1].codil lacks nu"),
    ([{"codil": [2, "1/2"]}], "perturbations[0].codil must be an object with kp and nu, "
     "got [2, '1/2']"),
    # a falsy part is no absent one
    ([{"corec": {}}], "perturbations[0].corec lacks k and mu"),
    ([{"codil": []}], "perturbations[0].codil must be an object with kp and nu, got []"),
    ([{"corec": 0}], "perturbations[0].corec must be an object with k and mu, got 0"),
    ([{"codil": ""}], "perturbations[0].codil must be an object with kp and nu, got ''"),
])
def test_a_malformed_perturbation_in_a_config_is_named(tmp_path, capsys, perturbations,
                                                      message):
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps({"schema": 1, "scheme": cauchy_scheme().to_dict(),
                                "perturbations": perturbations, "n": [4]}),
                    encoding="utf-8")
    assert run_cli(capsys, "quad", "--config", str(path)) == (1, "", "error: %s\n" % message)


@pytest.mark.parametrize("n", [103, 104, 120, 200])
def test_the_worked_example_builds_at_large_n(capsys, n):
    # every zero cot(j pi/(n+1)) is real and simple: Newton from the pencil's
    # seeds finds each, and each weight is the correctly rounded 1/(n+1)
    code, out, err = run_cli(capsys, "--precision", "17", "zeros", "--n", str(n))
    assert (code, err) == (0, "")
    zeros = [float(line) for line in out.split()]
    expected = sorted(1 / math.tan(j * math.pi / (n + 1)) for j in range(1, n + 1))
    assert len(zeros) == n
    assert max(abs(z - e) / max(1.0, abs(e)) for z, e in zip(zeros, expected)) <= 1e-13
    rule = rii.build_rule(cauchy_scheme(), None, n)
    assert list(rule.nodes) == zeros
    assert rule.weights == (1 / (n + 1),) * n
    code, out, err = run_cli(capsys, "--precision", "17", "quad", "--n", str(n),
                             "--integrand", "1")
    assert (code, err) == (0, "")
    assert float(out) == math.fsum(rule.weights)


def test_zeros_of_a_constant_are_refused(capsys):
    assert run_cli(capsys, "zeros", "--n", "0") == (
        1, "", "error: need a nonconstant polynomial\n")


def test_zeros_far_beyond_the_coefficients(capsys):
    # P*_4 is about 10^800 at its zero near 1.6e200; each printed zero is
    # bracketed by an exact sign change of P*_4 between its float neighbours
    code, out, err = run_cli(capsys, "--precision", "17", "zeros", "--n", "4", "--mu", "1e200")
    assert (code, err) == (0, "")
    zeros = [float(line) for line in out.split()]
    assert zeros == [-1.0, -1.25e-201, 1.0, 1.6000000000000002e200]
    p, _ = family_ends(cauchy_scheme(), Perturbation.corec(0, Fraction("1e200")), 4)
    for x in zeros:
        below, above = (p.ratio_at(math.nextafter(x, end))[0] for end in (-math.inf, math.inf))
        assert below * above < 0
    code, out, err = run_cli(capsys, "quad", "--n", "4", "--mu", "1e200", "--integrand", "1")
    assert (code, out, err) == (0, "0.8\n", "")


def test_an_m0_refusal_names_the_calibration(capsys):
    # rho_1 = 0: P*_1 = x has its zero, but the unperturbed Q_2 that M_0's
    # two-point fit reads has no leading coefficient
    scheme = '{"rho": [1, 0, 1, 1], "c": 0, "lambda": "1/4", "omega": 1}'
    assert run_cli(capsys, "zeros", "--n", "1", "--scheme", scheme) == (0, "0\n", "")
    assert run_cli(capsys, "quad", "--n", "1", "--scheme", scheme) == (
        1, "", "error: the 1-point rule's nodes exist, but M_0 cannot be calibrated: the "
        "leading coefficient of the unperturbed Q_2 vanishes\n")


def test_an_m0_refusal_says_the_nodes_exist(capsys):
    # omega = 1 makes W_1 = 1 + x^2, so P_2 = x^2 - (1 + x^2) = -1: P_1 = x
    # has its zero, but M_0's two-point fit reads the leading coefficient of
    # P_2, and the refusal says the node exists
    scheme = '{"rho": [1, 1, 1], "c": [0, 0, 0], "lambda": [1, 1, 1], "omega": 1}'
    assert run_cli(capsys, "zeros", "--n", "1", "--scheme", scheme) == (0, "0\n", "")
    assert run_cli(capsys, "quad", "--n", "1", "--integrand", "1", "--scheme", scheme) == (
        1, "", "error: the 1-point rule's nodes exist, but M_0 cannot be calibrated: the "
        "leading coefficient of the unperturbed P_2 vanishes\n")


@pytest.mark.parametrize("bounds", [("--x-min=-1.7e308", "--x-max=1.7e308"),
                                    ("--x-min", "nan"), ("--x-max", "inf")])
def test_measure_refuses_unsampleable_intervals(capsys, bounds):
    # a width beyond the float range once sampled at nan; a nan end passed the
    # empty-interval check
    code, out, err = run_cli(capsys, "measure", "--n", "4", *bounds)
    assert code == 1 and out == ""
    assert err.startswith("error: cannot sample [") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["quad", "zeros"])
def test_zero_near_origin_polishes(capsys, command):
    # mu = 1e20 at k = 0 gives P*_10 a zero at -5e-22, where an absolute
    # Newton stop would end one step early and fail the residual gate
    code, out, err = run_cli(capsys, command, "--n", "10", "--mu", "1e20")
    assert (code, err) == (0, "")
    if command == "zeros":
        assert float(out.split()[4]) == pytest.approx(-5e-22, rel=1e-12)


def test_closed_pipe_exits_one_silently():
    # 5000 samples are more than a pipe buffer holds, so rii is still writing
    # when its reader goes away after the first line
    proc = subprocess.Popen(
        [sys.executable, "-m", "rii.cli", "measure", "--n", "10", "--samples", "5000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rii.__file__))))
    assert proc.stdout.readline() == b"x,density,flag\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=60), err) == (1, b"")


@pytest.mark.parametrize("argv", [
    ("check", "--suite", "all", "--instances", "1"),
    ("poly", "--n", "5", "--kind", "both"),
    ("measure", "--n", "6", "--method", "spline"),
    ("measure", "--n", "6", "--method", "lagrange"),
])
def test_check_does_not_import_numpy_or_scipy(argv):
    # only root finding needs numpy: commands that find no zeros start
    # without it, and nothing imports scipy, even where it is installed; a
    # fresh interpreter shows it
    unwanted = {"scipy"} if argv[0] == "measure" else {"numpy", "scipy"}
    script = ("import io, sys, contextlib\n"
              "from rii.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = main(%r)\n"
              "print(code, sorted(%r & set(sys.modules)))\n" % (list(argv), unwanted))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rii.__file__))))
    assert (proc.stdout, proc.stderr) == ("0 []\n", "")


def _run_without_scipy(code):
    """Run `code` in a fresh interpreter where `import scipy` fails."""
    return subprocess.run(
        [sys.executable, "-c", "import sys\nsys.modules['scipy'] = None\n" + code],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rii.__file__))))


@pytest.mark.parametrize("argv", [
    ("poly", "--n", "5", "--kind", "both"),
    ("zeros", "--n", "6", "--mu", "0.1"),
    ("quad", "--n", "6", "--mu", "0.1", "--integrand", "example3"),
    ("table", "--id", "t4"),
    ("measure", "--n", "6", "--method", "spline"),
    ("measure", "--n", "6", "--method", "lagrange"),
    ("check", "--suite", "all", "--instances", "1"),
    ("flip",),
])
def test_no_command_needs_scipy(argv):
    proc = _run_without_scipy("import io, contextlib\n"
                              "from rii.cli import main\n"
                              "with contextlib.redirect_stdout(io.StringIO()):\n"
                              "    sys.exit(main(%r))\n" % (list(argv),))
    assert (proc.returncode, proc.stderr) == (0, "")


def test_the_oracles_do_not_need_scipy():
    proc = _run_without_scipy("from rii import E_REFERENCE, cauchy_scheme, exactness_check, "
                              "reference_value_oracle\n"
                              "print(exactness_check(cauchy_scheme(), 4, 7) < 1e-11, "
                              "abs(reference_value_oracle() - E_REFERENCE) < 1e-10)\n")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True True\n", "")

# --- arbitrary argv ------------------------------------------------------------

_PERT = ("--mu", "--k", "--nu", "--kp", "--scheme")
_FLAGS = {
    "poly": ("--n", "--kind", "--out") + _PERT,
    "zeros": ("--n", "--out") + _PERT,
    "quad": ("--n", "--integrand", "--config", "--out") + _PERT,
    "table": ("--id", "--out"),
    "measure": ("--n", "--method", "--samples", "--x-min", "--x-max", "--out") + _PERT,
    "check": ("--suite", "--seed", "--instances"),
    "flip": ("--pairs", "--mu", "--nu", "--n", "--out", "--scheme"),
}
_VALUES = {
    "--n": st.integers(-30, 30).map(str),
    "--k": st.integers(-3, 12).map(str),
    "--kp": st.integers(-3, 12).map(str),
    "--mu": st.sampled_from(["0.01", "-0.001", "1/10", "0", "-2", "1/0", "abc", "1e3",
                            "1e400"]),
    "--nu": st.sampled_from(["1.004", "0.98", "2.12", "0", "-1", "1/0", "x"]),
    "--out": st.sampled_from(["text", "csv", "json", "xml"]),
    "--kind": st.sampled_from(["first", "second", "both", "third"]),
    "--scheme": st.sampled_from([
        "cauchy", "{}", "[]", "[1,", "no-such-scheme.json", '{"rho": 1}',
        '{"rho": 1, "c": 0, "lambda": "1/4", "omega": 0}',
        '{"rho": 1, "c": 0, "lambda": "1/4", "omega": "2"}',
        '{"rho": [1, 2], "c": [0], "lambda": ["1/4", "1/3"]}',
        '{"rho": {}, "c": null, "lambda": [[1]], "nodes": [[0, 1]]}',
        '{"rho": 1, "c": 0, "lambda": 1, "nodes": [[0, [0, 1]], [1]]}',
        '{"rho": "1/0", "c": 0, "lambda": 1}', '{"rho": 1, "c": Infinity, "lambda": 1}']),
    "--integrand": st.sampled_from(["example3", "x^2", "exp(x)", "1/(x-x)", "x^x", "sin(",
                                    "^".join(["x"] * 1000)]),
    "--method": st.sampled_from(["lagrange", "spline", "bogus"]),
    "--config": st.just("no-such-config.json"),
    "--samples": st.integers(-2, 20).map(str),
    "--x-min": st.sampled_from(["-1", "0.5", "nan", "inf", "-inf", "1e308"]),
    "--x-max": st.sampled_from(["1", "-0.5", "nan", "inf", "-1e308"]),
    "--id": st.sampled_from(["t1", "t2", "t3", "t4", "t5", "t6", "t7"]),
    "--suite": st.sampled_from(["structural", "transfer", "spectral", "oprl", "all", "none"]),
    "--seed": st.integers(-5, 300).map(str),
    "--instances": st.integers(-3, 3).map(str),
    "--pairs": st.sampled_from(["2:6,3:5", "3:7", "1:0", "-1:2", "a:b", "", "4:4"]),
}


@st.composite
def _argv(draw):
    argv = []
    if draw(st.booleans()):
        argv += ["--precision", str(draw(st.integers(-2, 20)))]
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv.append(command)
    flags = draw(st.lists(st.sampled_from(_FLAGS[command]), max_size=5, unique=True))
    if command == "check" and "--instances" not in flags:
        flags.append("--instances")   # the default sizes take seconds
    for flag in flags:
        argv += [flag, draw(_VALUES[flag])]
    return argv


@settings(max_examples=150, deadline=None)
@given(_argv())
def test_main_exits_cleanly_on_arbitrary_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse: --help exits 0, usage errors 2
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    if code == 1:
        assert err.getvalue().startswith("error: ")
