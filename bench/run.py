"""Benchmark of the rii command line, run in-process as a batch user would.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory.  One process, one thread, closed loop: each `rii` command
(`rii.cli.main(argv)`) is issued only after the previous one returned, and
its output is checked by the workload's gates.

--trace 0 measures the end-to-end metrics.  setup_s is the median of eight
cold starts of a fresh interpreter running the run's first command (made
from a fixed seed), half before and half after the passes, each scaled by
the baseline starts around it.  After an untimed warm-up, passes run until
--seconds have elapsed.  Command times are corrected for the machine's
speed at the moment (see calibration.py).  The raw figures are kept in the
record.

--trace 1 measures the per-layer metrics.  It alternates plain and traced
runs of pass 0 until --seconds have elapsed (at least one of each), so the
counts repeat exactly for a seed.

The last line of standard output is the result object.  The line before it
is the full record, which is also written to bench/results/, with the spans
of the first traced pass next to it.
"""

from __future__ import annotations

import os

# np.roots calls LAPACK: pin its thread pools before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import metadata
from pathlib import Path
from time import perf_counter

from calibration import Calibrator
from tracing import COUNT_METRICS, LAYER_METRICS, Tracer, combine
from workloads import WORKLOADS, GateError, Result

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
PROBES = 8
PROBE_TIMEOUT_S = 120
BASELINE = "import numpy"
BASELINE_S = 0.2     # nominal baseline start: setup_s is in these seconds

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("work_per_s", "1/s"),
    ("heavy_cmd_s", "s"),
    ("peak_rss_mb", "MB"),
)


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "count": len(values)}


def gate(workload, result, stdout):
    """Check a command's output; output the gates cannot parse fails them too."""
    try:
        result.work, result.value = workload.check(result.command, stdout)
    except (GateError, LookupError, ValueError, TypeError) as exc:
        result.fail("%s: %s" % (type(exc).__name__, exc))


class Runner:
    """Issues commands in-process and gates their output."""

    def __init__(self, workload):
        import rii.cli

        self.cli = rii.cli
        self.workload = workload
        self.results = []

    def run(self, command):
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(list(command.argv))
        except (Exception, SystemExit) as exc:
            code = "%s: %s" % (type(exc).__name__, exc)
        result = Result(command, perf_counter() - start)
        self.results.append(result)
        if code != 0:
            result.fail("exit %s %s" % (code, err.getvalue().strip()[-300:]))
        else:
            gate(self.workload, result, out.getvalue())
        return result

    def run_pass(self, commands, calibrator):
        results = []
        for command in commands:
            results.append(self.run(command))
            calibrator.timed(results[-1])
        self.workload.check_pass(results)
        return results


def interpreter(code):
    """Run `code` in a fresh interpreter; returns (seconds, completed process)."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=PROBE_TIMEOUT_S)
    return perf_counter() - start, proc


def cold_starts(runner, count):
    """`count` gated cold starts of the run's first command.

    Each sits between two baseline starts (interpreter plus numpy, no rii),
    and its `scale` is BASELINE_S over their mean, so a host that starts
    processes slowly for a while does not read as slow set-up.
    """
    command = runner.workload.probe()
    code = ("import sys; sys.path.insert(0, %r); from rii.cli import main; "
            "sys.exit(main(%r))" % (str(SRC), list(command.argv)))
    baselines = [interpreter(BASELINE)[0]]
    out = []
    for _ in range(count):
        seconds, proc = interpreter(code)
        result = Result(command, seconds)
        runner.results.append(result)
        if proc.returncode != 0:
            result.fail("cold start exit %s %s"
                        % (proc.returncode, proc.stderr.strip()[-300:]))
        else:
            gate(runner.workload, result, proc.stdout)
        baselines.append(interpreter(BASELINE)[0])
        result.scale = BASELINE_S / ((baselines[-2] + baselines[-1]) / 2)
        out.append(result)
    return out


def timings(passes, heavy, seconds):
    """wall_s, work_per_s and heavy_cmd_s, with `seconds(result)` per command."""
    def pass_s(p):
        return sum(seconds(r) for r in p)

    return {
        "wall_s": statistics.median(pass_s(p) for p in passes),
        "work_per_s": statistics.median(sum(r.work for r in p) / pass_s(p) for p in passes),
        # a pass may hold several heavy commands (one per ladder shape)
        "heavy_cmd_s": statistics.median(
            statistics.mean(seconds(r) for r in p if r.command.kind == heavy)
            for p in passes),
    }


def measure_end_to_end(runner, seed, seconds):
    workload = runner.workload
    # Cold starts before and after the passes, so setup_s sees two moments.
    probes = cold_starts(runner, PROBES // 2)
    for command in workload.warmup(seed):
        runner.run(command)
    calibrator = Calibrator()
    calibrator.sample()
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        passes.append(runner.run_pass(workload.commands(seed, len(passes)), calibrator))
    calibrator.sample()
    probes += cold_starts(runner, PROBES - len(probes))
    metrics = timings(passes, workload.heavy, lambda r: r.corrected)
    # Cold starts are interpreter start-up and imports, which the arithmetic
    # kernel does not track: they are scaled by the baseline starts instead.
    metrics["setup_s"] = statistics.median(r.corrected for r in probes)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    by_kind = {}
    for r in (r for p in passes for r in p):
        by_kind.setdefault(r.command.kind, []).append(r.corrected)
    pass_s = [sum(r.corrected for r in p) for p in passes]
    record = {
        "raw": timings(passes, workload.heavy, lambda r: r.seconds),
        "kernel_s": summary(calibrator.kernels),
        "setup_probes_s": [r.seconds for r in probes],
        "setup_raw_s": statistics.median(r.seconds for r in probes),
        "passes_s": pass_s,
        "wall_s": summary(pass_s),
        "work": sum(r.work for p in passes for r in p),
        "work_unit": workload.unit,
        "heavy_cmd": workload.heavy,
        "commands": {kind: summary(values) for kind, values in sorted(by_kind.items())},
    }
    for key, kind in (("rule_n80_s", "quad n=80"), ("rule_n100_s", "quad n=100"),
                      ("lagrange_n20_s", "measure lagrange n=20")):
        record[key] = statistics.median(by_kind[kind]) if kind in by_kind else None
    return metrics, record, None


def measure_layers(runner, seed, seconds):
    workload = runner.workload
    for command in workload.warmup(seed):
        runner.run(command)
    calibrator = Calibrator()
    calibrator.sample()
    plain, traced, layers = [], [], []
    spans = None
    start = perf_counter()
    while not layers or perf_counter() - start < seconds:
        plain.append(runner.run_pass(workload.commands(seed, 0), calibrator))
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(runner.run_pass(workload.commands(seed, 0), calibrator))
        finally:
            tracer.uninstall()
        layers.append(tracer.metrics())
        if spans is None:
            spans = tracer.spans
    calibrator.sample()
    plain_s = [sum(r.corrected for r in p) for p in plain]
    traced_s = [sum(r.corrected for r in p) for p in traced]
    metrics = combine(layers)
    metrics["trace.overhead_frac"] = (statistics.median(traced_s)
                                      / statistics.median(plain_s) - 1.0)
    unsteady = sorted({name for run in layers[1:] for name in COUNT_METRICS
                       if run[name] != layers[0][name]})
    record = {"traced_passes": len(traced_s), "traced_pass_s": summary(traced_s),
              "untraced_pass_s": summary(plain_s), "counts_repeat": not unsteady,
              "unsteady_counts": unsteady}
    return metrics, record, spans


def environment(seed):
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),   # read without importing scipy
        "machine": platform.machine(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rii" / "__init__.py").is_file():
        print("error: no rii sources at %s; run from a source checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print("error: unknown workload %r (expected one of %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](ROOT)
    workload.prepare()
    runner = Runner(workload)
    if args.trace:
        declared = LAYER_METRICS
        values, details, spans = measure_layers(runner, args.seed, args.seconds)
    else:
        declared = END_TO_END
        values, details, spans = measure_end_to_end(runner, args.seed, args.seconds)
    run_errors = workload.check_run()

    failures = [r for r in runner.results if not r.ok]
    attempted = len(runner.results)
    correct = not failures and not run_errors and details.get("counts_repeat", True)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, *_ in declared}
    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        **environment(args.seed),
        "attempted": attempted, "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": [("%s %s: %s" % (r.command.kind, " ".join(r.command.argv), r.error))
                     for r in failures[:10]],
        "run_errors": run_errors,
        "max_table_dev": None, "identity_failures": None, "ladder_drift": None,
        **workload.facts, **details, "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    (RESULTS / (stem + ".json")).write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (RESULTS / (stem + "-spans.json")).write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"], "spans": spans}) + "\n")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
