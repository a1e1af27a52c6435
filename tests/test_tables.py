"""Bundled reference tables: fixtures, reproduction, and the flip experiment."""

import math
from fractions import Fraction

import pytest

from rii import (
    E_REFERENCE,
    Perturbation,
    cauchy_scheme,
    load_fixture,
    order_flip_experiment,
    reference_value_oracle,
    reproduce_table,
)
from rii import tables
from rii.cli import main
from rii.tables import NODE_COLUMNS, VALUE_COLUMNS, estimate_cell


def test_fixture_shapes():
    assert len(load_fixture("t1")) == 18
    assert len(load_fixture("t2")) == 10
    assert len(load_fixture("t3")) == 30
    assert len(load_fixture("t4")) == 10
    assert len(load_fixture("t5")) == 5
    assert len(load_fixture("t6")) == 5
    with pytest.raises(ValueError):
        load_fixture("t7")


def test_reference_value_oracle_matches_pin():
    assert abs(reference_value_oracle() - E_REFERENCE) < 1e-10


def _adaptive_j(k):
    from scipy.integrate import quad

    value, _err = quad(lambda x: math.exp(-x * x) / (x * x + 1.0) ** k,
                       -math.inf, math.inf, epsabs=1e-13, epsrel=1e-13, limit=400)
    return value


def test_reference_value_is_the_exact_j8_combination():
    assert tables._j_coefficients(8) == (Fraction(46289, 645120), Fraction(18815, 64512))
    assert abs(reference_value_oracle() - _adaptive_j(8)) < 1e-15


@pytest.mark.parametrize("k", range(9))
def test_j_recurrence_matches_adaptive_quad(k):
    a, b = tables._j_coefficients(k)
    closed = a * math.pi * math.e * math.erfc(1.0) + b * math.sqrt(math.pi)
    assert abs(closed - _adaptive_j(k)) < 1e-15


def test_reproduce_value_tables_t2_t5_t6():
    """The combined tables pin the one-based label convention."""
    for tid, tol in (("t2", 1e-6), ("t5", 1e-4), ("t6", 1e-4)):
        report = reproduce_table(tid)
        assert report.columns == VALUE_COLUMNS
        assert report.flagged == 0
        assert report.max_deviation < tol, (tid, report.max_deviation)


def test_reproduce_node_table_t4():
    report = reproduce_table("t4")
    assert report.columns == NODE_COLUMNS
    assert len(report.rows) == 10
    assert report.max_deviation < 1e-8
    # the mirror convention: nodes ascend and straddle zero
    nodes = [row["node"] for row in report.rows]
    assert nodes == sorted(nodes)
    assert nodes[0] < 0 < nodes[-1]


def test_t1_has_exactly_one_anomalous_cell():
    report = reproduce_table("t1")
    over = [r for r in report.rows if r["abs_dev"] > 1e-6]
    assert len(over) == 1
    bad = over[0]
    assert (bad["n"], bad["mu"]) == (10, "0.001")
    assert bad["abs_dev"] < 1e-4


def test_cell_with_complex_zeros_is_flagged(monkeypatch, capsys):
    # criterion 10's cell: nu_1 = 2.12 gives P*_18 a conjugate pair of zeros
    rows = [{"n": "18", "kp": "1", "nu": "2.12", "ref": "0.6"},
            {"n": "4", "kp": "1", "nu": "0.94", "ref": "0.5922947288"}]
    monkeypatch.setattr(tables, "load_fixture", lambda table_id: rows)
    report = reproduce_table("t3")
    assert report.flagged == 1
    assert (report.rows[0]["I_star"], report.rows[0]["abs_dev"]) == ("", "")
    assert report.max_deviation == report.rows[1]["abs_dev"] < 1e-9
    assert main(["table", "--id", "t3", "--out", "text"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "18,,,2.12,1,,0.6,"
    assert out[-1].endswith(" over 2 cells (1 flagged)")


def test_estimate_cell_matches_fixture_row():
    scheme = cauchy_scheme()
    value = estimate_cell(scheme, Perturbation.corec(0, Fraction("0.1")), 4)
    assert abs(value - 0.5444480269) < 1e-6


def test_order_flip_experiment_shape_and_median():
    scheme = cauchy_scheme()
    pairs = [(3, Fraction("0.01"), 7, Fraction("1.004")),
             (4, Fraction("0.01"), 6, Fraction("1.004"))]
    report = order_flip_experiment(scheme, pairs, 10)
    assert report.median_level == 5
    assert len(report.rows) == 4          # each pair plus its flip
    ks = [(r["k"], r["kp"]) for r in report.rows]
    assert (7, 3) in ks and (6, 4) in ks
    assert report.median_row["k"] == report.median_row["kp"] == 5
    assert report.average_gap >= 0


def test_order_flip_experiment_validation():
    scheme = cauchy_scheme()
    with pytest.raises(ValueError):
        order_flip_experiment(scheme, [], 10)
    with pytest.raises(ValueError):
        # mixed median levels are refused
        order_flip_experiment(scheme, [(3, Fraction(1, 100), 7, Fraction(2)),
                                       (2, Fraction(1, 100), 6, Fraction(2))], 10)
    with pytest.raises(ValueError):
        # odd k + kp has no integer median
        order_flip_experiment(scheme, [(3, Fraction(1, 100), 6, Fraction(2))], 10)
    with pytest.raises(ValueError, match="median level 4"):
        # every pair at the median level leaves no flipped row to average
        order_flip_experiment(scheme, [(4, Fraction(1, 100), 4, Fraction(2))], 10)
