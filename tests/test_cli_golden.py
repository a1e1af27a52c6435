"""Byte-for-byte CLI output against files recorded in tests/golden/.

Each case runs `rii` in-process and compares its stdout with
tests/golden/<case>.out.  The cases cover every subcommand in every --out
format at the default precision, nested float rounding in JSON at
--precision 3, and `quad --config`.  --precision 17 is left out on purpose:
its last digits can differ between LAPACK builds.

To re-record after a deliberate output change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
from pathlib import Path

import pytest

from rii.cli import main

GOLDEN = Path(__file__).with_name("golden")
CONFIG = str(GOLDEN / "experiment.json")

POLY = ("poly", "--n", "3", "--kind", "both", "--mu", "1/10", "--k", "1")
ZEROS = ("zeros", "--n", "5", "--nu", "1.004", "--kp", "2")
QUAD = ("quad", "--n", "8", "--mu=-1/100", "--k", "2", "--nu", "0.98", "--kp", "4")
MEASURE = ("measure", "--n", "6", "--method", "spline", "--samples", "9",
           "--x-min", "-5", "--x-max", "5")

CASES = {
    "poly-text": POLY,
    "poly-csv": POLY + ("--out", "csv"),
    "poly-json": POLY + ("--out", "json"),
    "zeros-text": ZEROS,
    "zeros-csv": ZEROS + ("--out", "csv"),
    "zeros-json": ZEROS + ("--out", "json"),
    "quad-text": QUAD,
    "quad-csv": QUAD + ("--out", "csv"),
    "quad-json": QUAD + ("--out", "json"),
    "quad-config": ("quad", "--config", CONFIG),
    "quad-config-json": ("quad", "--config", CONFIG, "--out", "json"),
    "table-t5-text": ("table", "--id", "t5", "--out", "text"),
    "table-t5-csv": ("table", "--id", "t5"),
    "table-t5-json": ("table", "--id", "t5", "--out", "json"),
    "measure-text": MEASURE + ("--out", "text"),
    "measure-csv": MEASURE,
    "measure-json": MEASURE + ("--out", "json"),
    "measure-lagrange-csv": ("measure", "--n", "8", "--samples", "7", "--mu=-1/100",
                             "--x-min", "-3", "--x-max", "3"),
    "check": ("check", "--suite", "all", "--seed", "3", "--instances", "2"),
    "flip-text": ("flip",),
    "flip-csv": ("flip", "--out", "csv"),
    "flip-json": ("flip", "--out", "json"),
    "p3-flip-json": ("--precision", "3", "flip", "--out", "json"),
    "p3-table-t4-json": ("--precision", "3", "table", "--id", "t4", "--out", "json"),
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    code, out, err = _run(CASES[name])
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (GOLDEN / ("%s.out" % name)).read_bytes()


if __name__ == "__main__":
    for name, argv in sorted(CASES.items()):
        code, out, err = _run(argv)
        if code != 0 or err:
            raise SystemExit("%s: exit %s, %s" % (name, code, err))
        (GOLDEN / ("%s.out" % name)).write_bytes(out.encode("utf-8"))
