"""Byte-for-byte CLI and demo output against files recorded in tests/golden/.

Each case runs `rii` in-process and compares its stdout with
tests/golden/<case>.out.  The cases cover every subcommand in every --out
format at the default precision, each of the six tables (t4 in JSON at
--precision 3, the others as CSV), nested float rounding in JSON at
--precision 3, `quad --config`, the text form of non-real polynomial
coefficients, a spline through perturbed (unequal) weights, and a rule
and a polynomial of degree above 10, where packed families do the work
(at n = 100, with steps multiplied by shift-and-add).
`zeros` at n = 200 (the worked example), at n = 100 and at n = 10 (t4's
rule), and `quad` at n = 4 and at n = 100 under a co-dilation (a symmetric
rule, from half its nodes), also run at --precision 17: every float comes
from `Poly.enclose`, or from exact Horner where its ends round apart, and
every node is the fixed point of Newton's correctly rounded step, whatever
seed LAPACK's eigenvalues give it, so all 17 digits are the same on every
build.  So do two spline `measure` runs at n = 20, whose samples are plain
IEEE double arithmetic on those nodes and weights, and a Lagrange `measure`
at n = 20, whose samples are correctly rounded values of the exact
interpolant through them.  The six tables and the
default flip run at --precision 17 too, as CSV, so every cell is pinned to
its last bit; their estimates also call the C library's exp on each node.
tests/golden/p17-zeros-n400.out, `--precision 17 zeros --n 400`, and
tests/golden/p17-zeros-n400-codil.out, the same with `--nu 1.004 --kp 6`,
are not cases here (they take seconds); CI's large-n step diffs against
them, and they are re-recorded by hand.  So are
tests/golden/p17-measure-lagrange-n40-mu.out and
tests/golden/p17-measure-lagrange-n40-minus-mu.out, `--precision 17 measure
--n 40 --method lagrange --samples 400` at `--mu 0.01` and `--mu=-0.01`,
which CI's large-n density step diffs against.
The exact demos 01 and 02 run the same way against
tests/golden/demo-<name>.out, with the suite timings demo 02 prints masked.

To re-record after a deliberate output change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import re
import runpy
from pathlib import Path

import pytest

from rii.cli import build_parser, main

GOLDEN = Path(__file__).with_name("golden")
CONFIG = str(GOLDEN / "experiment.json")
DEMOS = Path(__file__).resolve().parent.parent / "demos"
DEMO_CASES = ("01_recurrence_basics", "02_identity_checks")
TIMING = re.compile(r"\(\d+\.\d+s\)")

POLY = ("poly", "--n", "3", "--kind", "both", "--mu", "1/10", "--k", "1")
ZEROS = ("zeros", "--n", "5", "--nu", "1.004", "--kp", "2")
QUAD = ("quad", "--n", "8", "--mu=-1/100", "--k", "2", "--nu", "0.98", "--kp", "4")
# non-conjugate nodes at index 1 give P_3 and Q_3 non-real coefficients
GAUSSIAN = ('{"rho": 1, "c": 0, "lambda": "1/4", "nodes": [[[0, 1], [0, 2]], '
            '[[1, 1], [1, -1]], [[0, 1], [0, 2]], [[0, 1], [0, 2]]]}')
# the t5 cell (k = 2, mu = 1/100, k' = 6, nu = 1.004)
T5_CELL = ("--mu", "1/100", "--k", "2", "--nu", "1.004", "--kp", "6")
MEASURE = ("measure", "--n", "6", "--method", "spline", "--samples", "9",
           "--x-min", "-5", "--x-max", "5")

CASES = {
    "poly-text": POLY,
    "poly-csv": POLY + ("--out", "csv"),
    "poly-json": POLY + ("--out", "json"),
    "poly-gaussian-text": POLY + ("--scheme", GAUSSIAN),
    "zeros-text": ZEROS,
    "zeros-csv": ZEROS + ("--out", "csv"),
    "zeros-json": ZEROS + ("--out", "json"),
    "quad-text": QUAD,
    "quad-csv": QUAD + ("--out", "csv"),
    "quad-json": QUAD + ("--out", "json"),
    "quad-n100": ("quad", "--n", "100", "--mu", "0.01", "--k", "2", "--nu", "1.004",
                  "--kp", "6"),
    "p17-zeros-n200": ("--precision", "17", "zeros", "--n", "200"),
    "p17-zeros-n100": ("--precision", "17", "zeros", "--n", "100", "--mu", "0.01", "--k", "2",
                       "--nu", "1.004", "--kp", "6"),
    # t4's rule and the smallest rule the installed entry point builds, at full precision
    "p17-zeros-n10": ("--precision", "17", "zeros", "--n", "10", "--mu=-0.01"),
    "p17-quad-n4": ("--precision", "17", "quad", "--n", "4", "--mu", "0.1"),
    "p17-quad-n100-codil-csv": ("--precision", "17", "quad", "--n", "100", "--nu", "0.98",
                                "--kp", "3", "--out", "csv"),
    "poly-n40-csv": ("poly", "--n", "40", "--kind", "both") + T5_CELL + ("--out", "csv"),
    # packed 264 bits a coefficient, past the width from which the packed
    # steps multiply by shift-and-add
    "poly-n100-csv": ("poly", "--n", "100", "--kind", "both") + T5_CELL + ("--out", "csv"),
    "quad-config": ("quad", "--config", CONFIG),
    "quad-config-json": ("quad", "--config", CONFIG, "--out", "json"),
    "table-t1-csv": ("table", "--id", "t1"),
    "table-t2-csv": ("table", "--id", "t2"),
    "table-t3-csv": ("table", "--id", "t3"),
    "table-t5-text": ("table", "--id", "t5", "--out", "text"),
    "table-t5-csv": ("table", "--id", "t5"),
    "table-t6-csv": ("table", "--id", "t6"),
    "table-t5-json": ("table", "--id", "t5", "--out", "json"),
    "measure-text": MEASURE + ("--out", "text"),
    "measure-csv": MEASURE,
    "measure-json": MEASURE + ("--out", "json"),
    "measure-lagrange-csv": ("measure", "--n", "8", "--samples", "7", "--mu=-1/100",
                             "--x-min", "-3", "--x-max", "3"),
    # 400 spline samples, most of them extrapolated
    "p17-measure-spline-n20": ("--precision", "17", "measure", "--n", "20", "--method",
                               "spline", "--samples", "400", "--x-min", "-40",
                               "--x-max", "40"),
    # the unperturbed weights are equal, so the spline above is a constant;
    # perturbed weights make it solve its slope system
    "p17-measure-spline-n20-mu": ("--precision", "17", "measure", "--n", "20", "--method",
                                  "spline", "--samples", "400", "--mu", "0.01", "--k", "0"),
    # the benchmark's heavy command: 400 samples of the degree-19 interpolant,
    # every one correctly rounded, so all 17 digits are pinned
    "p17-measure-lagrange-n20-csv": ("--precision", "17", "measure", "--n", "20", "--method",
                                     "lagrange", "--samples", "400", "--mu=-0.01", "--k", "0",
                                     "--out", "csv"),
    "measure-spline-perturbed-json": ("measure", "--n", "6", "--method", "spline",
                                      "--samples", "9", "--mu=-1/100", "--nu", "0.98",
                                      "--kp", "2", "--out", "json"),
    "check": ("check", "--suite", "all", "--seed", "3", "--instances", "2"),
    # instance 10 is identically singular: one `skipped:` record
    "check-skip": ("check", "--suite", "spectral", "--seed", "1555393582",
                   "--instances", "11"),
    "flip-text": ("flip",),
    "flip-csv": ("flip", "--out", "csv"),
    "flip-json": ("flip", "--out", "json"),
    "p3-flip-json": ("--precision", "3", "flip", "--out", "json"),
    "p3-table-t4-json": ("--precision", "3", "table", "--id", "t4", "--out", "json"),
    # every table cell and the default flip to the last bit
    **{"p17-table-%s-csv" % t: ("--precision", "17", "table", "--id", t, "--out", "csv")
       for t in ("t1", "t2", "t3", "t4", "t5", "t6")},
    "p17-flip-csv": ("--precision", "17", "flip", "--out", "csv"),
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _run_demo(name):
    """The demo's stdout with every printed suite time replaced by (<s>)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / ("%s.py" % name)), run_name="__main__")
    return TIMING.sub("(<s>)", out.getvalue())


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    code, out, err = _run(CASES[name])
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (GOLDEN / ("%s.out" % name)).read_bytes()


def test_one_parser_serves_every_call():
    # main builds its parser once per process: a usage error leaves it as it
    # was, and later commands of three kinds still print their goldens
    usage = io.StringIO()
    with contextlib.redirect_stderr(usage), pytest.raises(SystemExit) as exit_2:
        main(["quad", "--n", "ten"])
    expected = io.StringIO()
    with contextlib.redirect_stderr(expected), pytest.raises(SystemExit):
        build_parser().parse_args(["quad", "--n", "ten"])
    assert exit_2.value.code == 2
    assert usage.getvalue() == expected.getvalue()
    for name in ("poly-csv", "quad-text", "table-t5-csv"):
        assert _run(CASES[name]) == (0, (GOLDEN / ("%s.out" % name)).read_text("utf-8"), "")


@pytest.mark.parametrize("name", DEMO_CASES)
def test_demo_output_matches_golden(name):
    out = _run_demo(name)
    assert out.encode("utf-8") == (GOLDEN / ("demo-%s.out" % name)).read_bytes()


if __name__ == "__main__":
    for name, argv in sorted(CASES.items()):
        code, out, err = _run(argv)
        if code != 0 or err:
            raise SystemExit("%s: exit %s, %s" % (name, code, err))
        (GOLDEN / ("%s.out" % name)).write_bytes(out.encode("utf-8"))
    for name in DEMO_CASES:
        (GOLDEN / ("demo-%s.out" % name)).write_bytes(_run_demo(name).encode("utf-8"))
