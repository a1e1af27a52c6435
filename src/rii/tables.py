"""Reproduce the bundled reference tables and the order-flip experiment.

Six CSV fixtures ship with the package (data/t1.csv .. t6.csv): estimates of

    E = integral of exp(-x^2) / (x^2+1)^8 over the real line
      = 0.6133229495946,

obtained from n-point rules of the worked scheme under co-recursion (t1, t2),
co-dilation (t3), and both together with the levels swapped row to row
(t5, t6); t4 holds the 10 nodes and weights of the (n=10, mu_0=0.01) rule.

Every cell is `build_rule`'s rule, weighed by the second-kind ratio with the
mass constant M_0 it calibrates at the cell's n (1/2 for this scheme at every
n), M_0 Q*_n/P*_n' (the raw ratio's sum is ~2 for this scheme, irreconcilable
with the t3 magnitudes).  The moment formula
M_0 prod lam*_i W_i / (P*_n' P*_{n-1}) is the same weight at an exact zero of
P*_n for every scheme and perturbation (the Casorati identity); at the float
nodes the two differ by M_0 P*_n Q*_{n-1} / (P*_n' P*_{n-1}).

Two fixture conventions, recovered by matching every cell against a grid of
recomputations and kept here so the reproduction lines up digit for digit:

* t5/t6 label modification positions one-based, so a printed (k, kp) row is
  computed at library indices (k-1, kp-1); t1/t2/t3 are zero-based as printed.
* t4 is mirror-oriented: its nodes are the negatives of this library's
  (mu_0 = +0.01)-rule nodes in reverse order, i.e. exactly the mu_0 = -0.01
  rule.  The sign convention here is pinned by the documented
  P_1(x; mu=1/10) = x - 1/10, so the cell is computed at -mu.  The estimate
  itself is unaffected (even integrand, mirror-symmetric rule).

`reproduce_table` recomputes every cell and reports |computed - reference|;
a cell whose rule has complex zeros is flagged, not fatal.  One t1 cell
(n=10, mu=0.001) sits ~3.8e-5 from its recomputation while every neighbour
agrees to ~1e-9 and the n=8/n=12 entries bracket it monotonically; it is
reported as computed, not patched.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .errors import ComplexZerosError
from .integrands import BUILTINS
from .quadrature import build_rule, estimate
from .schemes import Perturbation, cauchy_scheme

E_REFERENCE = 0.6133229495946

TABLE_IDS = ("t1", "t2", "t3", "t4", "t5", "t6")

VALUE_COLUMNS = ("n", "mu", "k", "nu", "kp", "I_star", "paper_value", "abs_dev")
NODE_COLUMNS = ("j", "node", "node_paper", "node_dev",
                "weight", "weight_paper", "weight_dev")


def reference_value_oracle():
    """Re-derive E by adaptive integration (no table input)."""
    from scipy.integrate import quad

    value, _err = quad(lambda x: math.exp(-x * x) / (x * x + 1.0) ** 8,
                       -math.inf, math.inf, epsabs=1e-14, epsrel=1e-14, limit=400)
    return value


def load_fixture(table_id):
    """Rows of data/<table_id>.csv as dicts of strings."""
    if table_id not in TABLE_IDS:
        raise ValueError("unknown table id %r (expected one of %s)"
                         % (table_id, ", ".join(TABLE_IDS)))
    path = resources.files("rii").joinpath("data/%s.csv" % table_id)
    with path.open("r", encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def _perturbation_from_row(row, shift=0):
    k = row.get("k")
    kp = row.get("kp")
    return Perturbation(
        k=int(k) + shift if k else None,
        mu=Fraction(row["mu"]) if k else None,
        kp=int(kp) + shift if kp else None,
        nu=Fraction(row["nu"]) if kp else None,
    )


def estimate_cell(scheme, perturbation, n):
    """One table cell: the n-point rule applied to the tables' integrand, example3."""
    return estimate(build_rule(scheme, perturbation, n), BUILTINS["example3"].evaluator)


@dataclass(frozen=True)
class TableReport:
    table_id: str
    columns: tuple
    rows: tuple          # dicts keyed by `columns`; numeric or "" entries
    max_deviation: float  # worst |computed - reference| over unflagged cells
    flagged: int          # cells skipped because the rule has complex zeros


def reproduce_table(table_id):
    """Recompute every cell of one bundled table next to its reference value."""
    fixture = load_fixture(table_id)
    scheme = cauchy_scheme()
    if table_id == "t4":
        return _reproduce_node_table(fixture, scheme)
    rows = []
    worst = 0.0
    flagged = 0
    # combined tables label positions one-based (see module docstring)
    shift = -1 if table_id in ("t5", "t6") else 0
    for raw in fixture:
        pert = _perturbation_from_row(raw, shift)
        out = {
            "n": int(raw["n"]),
            "mu": raw.get("mu", "") if raw.get("k") else "",
            "k": int(raw["k"]) if raw.get("k") else "",
            "nu": raw.get("nu", "") if raw.get("kp") else "",
            "kp": int(raw["kp"]) if raw.get("kp") else "",
            "paper_value": raw["ref"],
        }
        try:
            value = estimate_cell(scheme, pert, int(raw["n"]))
        except ComplexZerosError:
            flagged += 1
            out["I_star"] = ""
            out["abs_dev"] = ""
        else:
            deviation = abs(value - float(raw["ref"]))
            worst = max(worst, deviation)
            out["I_star"] = value
            out["abs_dev"] = deviation
        rows.append(out)
    return TableReport(table_id, VALUE_COLUMNS, tuple(rows), worst, flagged)


def _reproduce_node_table(fixture, scheme):
    # mirror orientation: the fixture's nodes belong to the -mu rule here
    pert = Perturbation.corec(0, Fraction("-0.01"))
    rule = build_rule(scheme, pert, len(fixture))
    rows = []
    worst = 0.0
    for raw, node, weight in zip(fixture, rule.nodes, rule.weights):
        node_dev = abs(node - float(raw["node"]))
        weight_dev = abs(weight - float(raw["weight"]))
        worst = max(worst, node_dev, weight_dev)
        rows.append({
            "j": int(raw["j"]),
            "node": node, "node_paper": raw["node"], "node_dev": node_dev,
            "weight": weight, "weight_paper": raw["weight"], "weight_dev": weight_dev,
        })
    return TableReport("t4", NODE_COLUMNS, tuple(rows), worst, 0)


@dataclass(frozen=True)
class FlipReport:
    n: int
    rows: tuple         # dicts: k, mu, kp, nu, I_star, dev (= |I* - E|)
    median_level: int
    median_row: dict
    average: float      # mean I* over the non-median rows
    average_gap: float  # |average - median I*|


def order_flip_experiment(scheme, pairs, n):
    """Estimates for each (k, mu, kp, nu) and its level-flipped counterpart.

    All pairs must share the same median level (k + kp)/2; the report ends
    with the both-at-median estimate and how far the average of the flipped
    family lands from it.
    """
    if not pairs:
        raise ValueError("need at least one (k, mu, kp, nu) pair")
    medians = {k + kp for k, _mu, kp, _nu in pairs}
    if len(medians) != 1 or (medians.pop() % 2) != 0:
        raise ValueError("pairs must share one integer median level (k + kp)/2")
    median = (pairs[0][0] + pairs[0][2]) // 2
    if all(k == kp for k, _mu, kp, _nu in pairs):
        raise ValueError("every pair is at the median level %d: no flipped row to "
                         "average" % median)

    def cell(k, mu, kp, nu):
        pert = Perturbation.both(k, mu, kp, nu)
        value = estimate_cell(scheme, pert, n)
        return {"k": k, "mu": mu, "kp": kp, "nu": nu,
                "I_star": value, "dev": abs(value - E_REFERENCE)}

    rows = []
    for k, mu, kp, nu in pairs:
        rows.append(cell(k, mu, kp, nu))
        if kp != k:
            rows.append(cell(kp, mu, k, nu))
    median_row = cell(median, pairs[0][1], median, pairs[0][3])
    off_median = [r for r in rows if not (r["k"] == median and r["kp"] == median)]
    average = math.fsum(r["I_star"] for r in off_median) / len(off_median)
    return FlipReport(
        n=n, rows=tuple(rows), median_level=median, median_row=median_row,
        average=average, average_gap=abs(average - median_row["I_star"]),
    )
