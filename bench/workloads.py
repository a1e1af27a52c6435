"""The benchmark's four workloads: command generation and correctness gates.

Every workload is a closed loop of `rii` command lines, issued one after the
other as a batch script would.  A pass is one fixed group of commands; the
benchmark seed and the pass index decide its inputs, so the same seed always
gives the same commands.  Gates only parse a command's own output; reference
data is prepared before any command is timed or traced.
"""

from __future__ import annotations

import csv
import io
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# Every table cell reproduces to <= 1e-8, except one documented t1 cell that
# sits 3.8e-5 from its recomputation (see rii.tables).
CELL_TOL = 1e-8
T1_OUTLIER = ("10", "0.001")
T1_OUTLIER_TOL = 1e-4
# Estimates of one perturbation at n = 40, 80 and 100 agree to ~1e-15.
LADDER_DRIFT_TOL = 1e-9
LADDER_RUNGS = (10, 40, 80, 100)
DRIFT_RUNGS = (40, 80, 100)
# A spline evaluated at a knot reproduces its value to rounding.
SPLINE_KNOT_RTOL = 1e-12
SPLINE_F2_TOL = 1e-12

PROBE_SEED = 0


class GateError(Exception):
    """A command's output missed a correctness gate."""


@dataclass(frozen=True)
class Command:
    kind: str                 # command class, e.g. "quad n=100"
    argv: tuple
    meta: dict = field(default_factory=dict, compare=False)


@dataclass
class Result:
    """One issued command: its latency and whether it passed its gates."""

    command: Command
    seconds: float
    work: int = 0
    value: object = None      # the number a pass-level gate compares
    error: str = ""
    scale: float = 1.0        # machine-speed correction (see calibration.py)

    @property
    def corrected(self):
        return self.seconds * self.scale

    @property
    def ok(self):
        return not self.error

    def fail(self, message):
        self.error = self.error or message
        self.work = 0


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def _finite(text, what):
    try:
        value = float(text)
    except ValueError:
        raise GateError("%s is not a number: %r" % (what, text)) from None
    if not math.isfinite(value):
        raise GateError("%s is not finite: %r" % (what, text))
    return value


class Workload:
    name = ""
    unit = ""          # what one unit of work_per_s is
    heavy = ""         # command kind timed by heavy_cmd_s

    def __init__(self, root):
        self.root = Path(root)
        self.facts = {}    # correctness numbers stored in the record

    def commands(self, seed, index):
        """The commands of pass `index` for benchmark seed `seed`."""
        raise NotImplementedError

    def warmup(self, seed):
        """Untimed commands that finish lazy set-up before measuring."""
        return self.commands(seed, 0)

    def probe(self):
        """A run's first command, made from a fixed seed, run cold for setup_s."""
        return self.warmup(PROBE_SEED)[0]

    def prepare(self):
        """Reference data for the gates, computed before anything is timed."""

    def check(self, command, stdout):
        """Gate one command's output; returns (work units, value)."""
        raise NotImplementedError

    def check_pass(self, results):
        """Gate a finished pass as a whole, failing results that miss it."""

    def check_run(self):
        """Library-level gates run once, untimed; returns failure messages."""
        return []


def _rng(name, seed, index):
    return random.Random("%s/%d/%d" % (name, seed, index))


class PaperTables(Workload):
    """`rii table --id t1..t6` and one flip experiment, order shuffled."""

    name = "paper_tables"
    unit = "cells"
    heavy = "table t3"
    TABLES = ("t1", "t2", "t3", "t4", "t5", "t6")
    # Levels 2:6 and 3:5 (median 4) are exactly the zero-based positions of
    # the one-based t5 rows, so every flip cell has a reference value.
    FLIP = ("flip", "--pairs", "2:6,3:5", "--mu", "0.01", "--nu", "1.004",
            "--n", "10", "--out", "csv")

    def __init__(self, root):
        super().__init__(root)
        self.facts["max_table_dev"] = 0.0
        self.t5 = {}

    def prepare(self):
        path = self.root / "src" / "rii" / "data" / "t5.csv"
        with path.open(encoding="utf-8", newline="") as handle:
            for row in csv.DictReader(handle):
                # one-based labels in the fixture, zero-based levels in flip
                self.t5[int(row["k"]) - 1, int(row["kp"]) - 1] = float(row["ref"])

    def commands(self, seed, index):
        out = [Command("table " + t, ("table", "--id", t, "--out", "csv"), {"table": t})
               for t in self.TABLES]
        out.append(Command("flip", self.FLIP))
        _rng(self.name, seed, index).shuffle(out)
        return out

    def check(self, command, stdout):
        rows = _rows(stdout)
        if not rows:
            raise GateError("%s printed no rows" % command.kind)
        if command.kind == "flip":
            for row in rows:
                key = int(row["k"]), int(row["kp"])
                if key not in self.t5:
                    raise GateError("flip row %s has no t5 reference" % (key,))
                deviation = abs(_finite(row["I_star"], "I_star") - self.t5[key])
                self._check_cell(deviation, CELL_TOL, "flip %s" % (key,))
            return len(rows), None
        table = command.meta["table"]
        columns = ("node_dev", "weight_dev") if table == "t4" else ("abs_dev",)
        for row in rows:
            tol = CELL_TOL
            if table == "t1" and (row["n"], row["mu"]) == T1_OUTLIER:
                tol = T1_OUTLIER_TOL
            for column in columns:
                deviation = _finite(row[column], "%s %s" % (table, column))
                self._check_cell(deviation, tol, "%s row %s" % (table, row))
        return len(rows), None

    def _check_cell(self, deviation, tol, where):
        self.facts["max_table_dev"] = max(self.facts["max_table_dev"], deviation)
        if deviation > tol:
            raise GateError("%s deviates by %.3g > %.0e" % (where, deviation, tol))


class RuleLadder(Workload):
    """`rii quad` on the worked example at n = 10, 40, 80, 100.

    A pass runs the ladder once for each perturbation shape (co-recursion,
    co-dilation, both), in a seeded order with seeded values.  The shapes
    differ in cost by about a quarter, so a pass holds one of each.
    """

    name = "rule_ladder"
    unit = "nodes"
    heavy = "quad n=100"
    MUS = ("0.1", "0.01", "0.001")                    # t1 column values
    NUS = ("0.94", "0.98", "1.004", "1.036", "1.1")   # t3 column values
    # Combined perturbations are the t5/t6 cells: zero-based levels (k, kp)
    # with (mu, nu) from t5 or t6.  Every one of them builds at n <= 100,
    # whereas some other combinations, e.g. k=5, mu=0.1, kp=4, nu=0.98,
    # already hit the n >= 104 defect at n = 100.
    BOTH_LEVELS = ((2, 6), (6, 2), (3, 5), (5, 3), (4, 4))
    BOTH_VALUES = (("0.01", "1.004"), ("0.1", "0.98"))

    def __init__(self, root):
        super().__init__(root)
        self.facts["ladder_drift"] = 0.0

    def perturbations(self, rng):
        sign = rng.choice(("", "-"))
        (k, kp), (mu, nu) = rng.choice(self.BOTH_LEVELS), rng.choice(self.BOTH_VALUES)
        out = [("--mu", sign + rng.choice(self.MUS), "--k", str(rng.randint(0, 5))),
               ("--nu", rng.choice(self.NUS), "--kp", str(rng.randint(1, 7))),
               ("--mu", sign + mu, "--k", str(k), "--nu", nu, "--kp", str(kp))]
        rng.shuffle(out)
        return out

    def commands(self, seed, index):
        return [Command("quad n=%d" % n,
                        ("--precision", "17", "quad", "--n", str(n)) + pert + ("--out", "csv"),
                        {"n": n, "pert": pert})
                for pert in self.perturbations(_rng(self.name, seed, index))
                for n in LADDER_RUNGS]

    def warmup(self, seed):
        return self.commands(seed, 0)[:1]

    def check(self, command, stdout):
        rows = _rows(stdout)
        if len(rows) != 1 or int(rows[0]["n"]) != command.meta["n"]:
            raise GateError("expected one row for n=%d, got %r" % (command.meta["n"], rows))
        return command.meta["n"], _finite(rows[0]["I_star"], "I_star")

    def check_pass(self, results):
        ladders = {}
        for r in results:
            if r.command.meta["n"] in DRIFT_RUNGS:
                ladders.setdefault(r.command.meta["pert"], []).append(r)
        for rungs in ladders.values():
            if len(rungs) != len(DRIFT_RUNGS) or not all(r.ok for r in rungs):
                continue   # a rung already failed on its own
            estimates = [r.value for r in rungs]
            drift = max(estimates) - min(estimates)
            self.facts["ladder_drift"] = max(self.facts["ladder_drift"], drift)
            if drift > LADDER_DRIFT_TOL:
                rungs[-1].fail("estimates at n=%s drift by %.3g" % (DRIFT_RUNGS, drift))


class IdentitySuites(Workload):
    """`rii check --suite all` on suite seeds drawn by the benchmark seed."""

    name = "identity_suites"
    unit = "suite instances"
    heavy = "check"
    LINE = re.compile(r"^(\w+): (\d+) instances, (\d+) failures$")
    SUITES = ("oprl", "spectral", "structural", "transfer")
    # Suite seeds 0..255, each run through every suite before it was admitted.
    # Some larger seeds, e.g. 1555393582, make the spectral suite report a
    # "pole-exhaustion" failure: its generator draws a scheme whose convergents
    # have a pole at nearly every sampled z.  That defect is left for a fix of
    # the suite; the benchmark does not draw such seeds.
    SUITE_SEEDS = tuple(range(256))

    def __init__(self, root):
        super().__init__(root)
        self.facts["identity_failures"] = 0

    def suite_seed(self, seed, index):
        order = list(self.SUITE_SEEDS)
        _rng(self.name, seed, -1).shuffle(order)
        return order[index % len(order)]

    def commands(self, seed, index):
        return [Command("check", ("check", "--suite", "all",
                                  "--seed", str(self.suite_seed(seed, index))))]

    def warmup(self, seed):
        # every suite once, on two instances each
        return [Command("check", self.commands(seed, 0)[0].argv + ("--instances", "2"))]

    def check(self, command, stdout):
        lines = stdout.splitlines()
        names, instances, failures = [], 0, 0
        for line in lines:
            match = self.LINE.match(line)
            if match:
                names.append(match.group(1))
                instances += int(match.group(2))
                failures += int(match.group(3))
        self.facts["identity_failures"] += failures
        if tuple(names) != self.SUITES:
            raise GateError("expected one summary line per suite, got %r" % lines[:8])
        if failures:
            raise GateError("%d identity failures" % failures)
        return instances, None


class DensityMeasure(Workload):
    """`rii measure --samples 400`: Lagrange at n = 10 and 20, spline at n = 20."""

    name = "density_measure"
    unit = "samples"
    heavy = "measure lagrange n=20"
    SAMPLES = 400
    RUNS = (("lagrange", 10), ("lagrange", 20), ("spline", 20))
    MU = "0.01"

    def __init__(self, root):
        super().__init__(root)
        self.rules = {}
        self.facts["lagrange_knot_err"] = None
        self.facts["spline_boundary_f2"] = None

    def commands(self, seed, index):
        mu = self.MU if _rng(self.name, seed, index).random() < 0.5 else "-" + self.MU
        return [Command("measure %s n=%d" % (method, n),
                        ("--precision", "17", "measure", "--n", str(n), "--method", method,
                         "--samples", str(self.SAMPLES), "--mu", mu, "--k", "0",
                         "--out", "csv"),
                        {"n": n, "method": method, "mu": mu})
                for method, n in self.RUNS]

    def prepare(self):
        from rii import Perturbation, build_rule, cauchy_scheme

        scheme = cauchy_scheme()
        for mu in (self.MU, "-" + self.MU):
            for n in sorted({n for _m, n in self.RUNS}):
                self.rules[n, mu] = build_rule(scheme, Perturbation.corec(0, Fraction(mu)), n)

    def check(self, command, stdout):
        rows = _rows(stdout)
        if len(rows) != self.SAMPLES:
            raise GateError("expected %d samples, got %d" % (self.SAMPLES, len(rows)))
        rule = self.rules[command.meta["n"], command.meta["mu"]]
        for row in rows:
            _finite(row["density"], "density")
            if row["flag"]:
                raise GateError("sample at x=%s is flagged %r" % (row["x"], row["flag"]))
        ends = ((rows[0], rule.nodes[0], rule.weights[0]),
                (rows[-1], rule.nodes[-1], rule.weights[-1]))
        for row, node, weight in ends:
            if float(row["x"]) != node:
                raise GateError("end sample x=%s is not the knot %r" % (row["x"], node))
            value = float(row["density"])
            exact = command.meta["method"] == "lagrange"
            if (value != weight) if exact else \
                    abs(value - weight) > SPLINE_KNOT_RTOL * abs(weight):
                raise GateError("density %r at knot %r misses its weight %r"
                                % (value, node, weight))
        return len(rows), None

    def check_run(self):
        from rii import lagrange_density, second_derivative_gaps, spline_density

        errors = []
        knot_err = 0.0
        f2 = 0.0
        for (n, mu), rule in sorted(self.rules.items()):
            approx = lagrange_density(rule.nodes, rule.weights)
            for x, w in zip(rule.nodes, rule.weights):
                knot_err = max(knot_err, abs(approx(x) - w))
            if n in {n for m, n in self.RUNS if m == "spline"}:
                boundary, _interior = second_derivative_gaps(
                    spline_density(rule.nodes, rule.weights))
                f2 = max(f2, boundary)
        self.facts["lagrange_knot_err"] = knot_err
        self.facts["spline_boundary_f2"] = f2
        if knot_err != 0.0:
            errors.append("Lagrange density misses a rule weight by %.3g" % knot_err)
        if f2 > SPLINE_F2_TOL:
            errors.append("spline boundary f'' is %.3g, not ~0" % f2)
        return errors


WORKLOADS = {cls.name: cls for cls in (PaperTables, RuleLadder, IdentitySuites,
                                       DensityMeasure)}
