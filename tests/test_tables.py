"""Bundled reference tables: fixtures, reproduction, and the flip experiment."""

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
