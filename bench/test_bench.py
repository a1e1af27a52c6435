"""Checks of the benchmark itself.

    python3 -m pytest bench/test_bench.py

Every workload must report every end-to-end metric (untraced) and every
per-layer metric (traced), and two traced runs of one seed must give the
same counts.  Takes a few minutes: each run issues real commands.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
sys.path.insert(0, str(BENCH))
from tracing import COUNT_METRICS  # noqa: E402

# A count each workload must move: the layer it exists to exercise.
EXERCISED = {"paper_tables": "tables.rules_built", "rule_ladder": "quadrature.rules",
             "identity_suites": "suites.instances", "density_measure": "density.samples"}


def run(workload, trace, cwd=ROOT, seed=3, seconds=1):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def assert_metrics(result, declared, nonzero):
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        if nonzero:
            assert reported["value"] > 0, metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_reported(workload):
    assert_metrics(result_of(run(workload, 0)), SPEC["end_to_end"], nonzero=True)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_a_seed(workload):
    first = result_of(run(workload, 1))
    second = result_of(run(workload, 1))
    assert_metrics(first, SPEC["per_layer"], nonzero=False)
    counts = {name: first["metrics"][name]["value"] for name in COUNT_METRICS}
    assert counts == {name: second["metrics"][name]["value"] for name in COUNT_METRICS}
    assert counts[EXERCISED[workload]] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
