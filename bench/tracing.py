"""Layer tracing for the rii benchmark, applied from outside the package.

A `Tracer` wraps the public functions and the hot methods of each `rii`
module at every place a `rii` module binds them (so `rii.quadrature`'s own
`gen_first_kind` and `rii.tables`' own `build_rule` are traced separately
from `rii.sequences.gen_first_kind`).  Nothing under `src/` changes; the
wrappers are removed again by `uninstall`.

Each traced call pushes a frame on a stack.  When it returns, its duration is
added to its parent's child time, and its self time is the duration minus
that child time.  Calls of coarse layers also keep a span
(name, start, end, parent span) in memory; calls of the fine-grained hot
layers (polynomial arithmetic, scalar simplification, scheme lookups, 2x2
matrix algebra, integrand evaluation) are only counted and timed, because
they run hundreds of thousands of times per pass.
"""

from __future__ import annotations

import statistics
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

# layer -> (defining module, public function names)
FUNCTIONS = {
    "cli": ("rii.cli", ("main",)),
    "tables": ("rii.tables", ("reproduce_table", "order_flip_experiment",
                              "estimate_cell", "load_fixture")),
    "quadrature": ("rii.quadrature", ("build_rule", "real_zeros", "calibrate_m0",
                                      "weights_moment_formula", "weights_second_kind",
                                      "estimate")),
    "sequences": ("rii.sequences", ("gen_first_kind", "gen_second_kind",
                                    "gen_associated", "eval_recurrence_at",
                                    "eval_sequence_at")),
    "exact": ("rii.exact", ("simplify_scalar",)),
    "transfer": ("rii.transfer", ("step_matrix", "f_matrix", "lambda_weight_product",
                                  "perturbation_transfer", "transfer_entries",
                                  "structural_residual", "transfer_residual")),
    "oprl": ("rii.oprl", ("reduce_to_oprl", "mobius_check", "coprl_structural",
                          "monic_sequence", "monic_associated", "corrected_vs_flawed")),
    "cfrac": ("rii.cfrac", ("convergent", "tail_convergent", "spectral_residual",
                            "lemma1_matrix", "lemma2_residual")),
    "suites": ("rii.suites", ("run_suite",)),
    "density": ("rii.density", ("lagrange_density", "spline_density",
                                "sample_density")),
}

# layer -> [(defining module, class, method names)]
METHODS = {
    "poly": [("rii.poly", "Poly", ("__mul__", "__call__"))],
    "schemes": [("rii.schemes", "CoefficientScheme", ("weight_poly", "weight_at", "nodes")),
                ("rii.schemes", "Perturbation", ("center", "coefficient"))],
    "polymat": [("rii.polymat", "PolyMatrix2", ("__matmul__", "__add__", "__sub__",
                                                "scale", "det", "transpose", "adjugate",
                                                "cofactor_matrix", "eval_at", "is_zero",
                                                "__eq__"))],
    "cfrac": [("rii.cfrac", "Homography", ("__init__", "apply"))],
}

# Layers called too often to keep one span per call.
SPANLESS = {"poly", "exact", "schemes", "polymat", "integrands"}

EVAL = "poly.__call__"
BUILD_RULE = "quadrature.build_rule"
WEIGHTS = ("quadrature.weights_moment_formula", "quadrature.weights_second_kind")
GENERATORS = ("sequences.gen_first_kind", "sequences.gen_second_kind",
              "sequences.gen_associated")
SUITE_NAMES = ("structural", "transfer", "spectral", "oprl")

# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("cli.self_s", "s", "lower"),
    ("tables.self_s", "s", "lower"),
    ("tables.rules_built", "count", "lower"),
    ("tables.calibrations", "count", "lower"),
    ("quadrature.rules", "count", "lower"),
    ("quadrature.roots_s", "s", "lower"),
    ("quadrature.polish_evals", "count", "lower"),
    ("quadrature.polish_s", "s", "lower"),
    ("quadrature.calibrate_s", "s", "lower"),
    ("quadrature.weights_s", "s", "lower"),
    ("quadrature.weight_evals", "count", "lower"),
    ("quadrature.estimate_s", "s", "lower"),
    ("quadrature.family_gens", "count", "lower"),
    ("quadrature.gens_per_rule", "ratio", "lower"),
    ("sequences.calls", "count", "lower"),
    ("sequences.self_s", "s", "lower"),
    ("sequences.polys_built", "count", "lower"),
    ("sequences.coeff_bits_max", "bits", "lower"),
    ("poly.mul_calls", "count", "lower"),
    ("poly.mul_s", "s", "lower"),
    ("poly.eval_calls", "count", "lower"),
    ("poly.eval_s", "s", "lower"),
    ("exact.simplify_calls", "count", "lower"),
    ("exact.simplify_s", "s", "lower"),
    ("schemes.lookups", "count", "lower"),
    ("schemes.self_s", "s", "lower"),
    ("transfer.calls", "count", "lower"),
    ("transfer.self_s", "s", "lower"),
    ("polymat.matmul_calls", "count", "lower"),
    ("polymat.self_s", "s", "lower"),
    ("oprl.calls", "count", "lower"),
    ("oprl.self_s", "s", "lower"),
    ("cfrac.spectral_calls", "count", "lower"),
    ("cfrac.pole_skips", "count", "lower"),
    ("cfrac.z_hit_ratio", "ratio", "higher"),
    ("cfrac.self_s", "s", "lower"),
    ("suites.structural_s", "s", "lower"),
    ("suites.transfer_s", "s", "lower"),
    ("suites.spectral_s", "s", "lower"),
    ("suites.oprl_s", "s", "lower"),
    ("suites.instances", "count", "higher"),
    ("suites.failures", "count", "lower"),
    ("density.lagrange_build_s", "s", "lower"),
    ("density.spline_build_s", "s", "lower"),
    ("density.sample_s", "s", "lower"),
    ("density.samples", "count", "higher"),
    ("density.sample_us", "us", "lower"),
    ("integrands.evals", "count", "lower"),
    ("integrands.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

# Metrics that must repeat exactly when the same inputs are traced again:
# everything but times and the tracing overhead.
COUNT_METRICS = tuple(name for name, unit, _ in LAYER_METRICS
                      if unit not in ("s", "us") and name != "trace.overhead_frac")


def _coeff_bits(value):
    if isinstance(value, Fraction):
        return value.numerator.bit_length() + value.denominator.bit_length()
    return max(_coeff_bits(value.re), _coeff_bits(value.im))  # GaussianRational


class Tracer:
    """Counts, self times and spans of one traced stretch of work."""

    def __init__(self):
        self._stack = [["", 0.0, None]]   # frames: [name, child seconds, span id]
        self._patches = []
        self.calls = defaultdict(int)         # name -> calls
        self.calls_at = defaultdict(int)      # (name, binding module) -> calls
        self.under = defaultdict(lambda: [0, 0.0])  # (name, parent) -> [calls, seconds]
        self.total = defaultdict(float)       # name -> inclusive seconds
        self.self_time = defaultdict(float)   # name -> self seconds
        self.raised = defaultdict(int)        # (name, exception type) -> calls
        self.spans = []                       # [name, start, end, parent span id]
        self.polys_built = 0
        self.coeff_bits_max = 0
        self.samples = 0
        self.suite_elapsed = defaultdict(float)
        self.suite_instances = 0
        self.suite_failures = 0

    # --- wrapping --------------------------------------------------------
    def _wrap(self, name, site, fn, observe=None):
        stack = self._stack
        keep_span = name.split(".", 1)[0] not in SPANLESS

        def traced(*args, **kwargs):
            parent = stack[-1]
            span_id = parent[2]
            if keep_span:
                span_id = len(self.spans)
                self.spans.append(None)
            frame = [name, 0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.raised[name, type(exc).__name__] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                parent[1] += elapsed
                self.calls[name] += 1
                self.calls_at[name, site] += 1
                pair = self.under[name, parent[0]]
                pair[0] += 1
                pair[1] += elapsed
                self.total[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
                if keep_span:
                    self.spans[span_id] = [name, start, end, parent[2]]
            if observe is not None:
                observe(result)
            return result

        return traced

    def _observe_family(self, seq):
        self.polys_built += len(seq)
        top = seq[-1]
        if top.coeffs:
            self.coeff_bits_max = max(self.coeff_bits_max,
                                      max(_coeff_bits(c) for c in top.coeffs))

    def _observe_suite(self, result):
        self.suite_elapsed[result.name] += result.elapsed
        self.suite_instances += result.instances
        self.suite_failures += len(result.failures)

    def _observe_samples(self, rows):
        self.samples += len(rows)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every binding of the traced functions in every loaded rii module."""
        modules = {key: mod for key, mod in sys.modules.items()
                   if key == "rii" or key.startswith("rii.")}
        observers = {name: self._observe_family for name in GENERATORS}
        observers["suites.run_suite"] = self._observe_suite
        observers["density.sample_density"] = self._observe_samples
        for layer, (module_name, names) in FUNCTIONS.items():
            home = modules[module_name]
            for attr in names:
                fn = getattr(home, attr)
                name = "%s.%s" % (layer, attr)
                for site, module in modules.items():
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            self._patch(module, key, self._wrap(
                                name, site, fn, observers.get(name)))
        for layer, specs in METHODS.items():
            for module_name, class_name, methods in specs:
                cls = getattr(modules[module_name], class_name)
                for attr in methods:
                    fn = cls.__dict__[attr]
                    name = "%s.%s" % (layer, attr)
                    wrapper = self._wrap(name, module_name, fn)
                    # aliases such as Poly.__rmul__ = __mul__ share the wrapper
                    for key, value in list(vars(cls).items()):
                        if value is fn:
                            self._patch(cls, key, wrapper)
        self._install_integrands(modules["rii.integrands"])

    def _install_integrands(self, integrands):
        builtins = integrands.BUILTINS
        originals = dict(builtins)
        wrapped = {}
        for key, item in originals.items():
            if id(item) not in wrapped:
                wrapped[id(item)] = integrands.Integrand(
                    item.id, self._wrap("integrands.eval", "rii.integrands", item.evaluator),
                    item.description)
            builtins[key] = wrapped[id(item)]
        self._restore_builtins = (builtins, originals)

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()
        builtins, originals = self._restore_builtins
        builtins.clear()
        builtins.update(originals)

    # --- derived metrics -------------------------------------------------
    def _layer(self, layer, table):
        prefix = layer + "."
        return sum(v for k, v in table.items() if k.startswith(prefix))

    def metrics(self):
        """Per-layer metric values (without trace.overhead_frac)."""
        calls, total, self_time = self.calls, self.total, self.self_time
        rules = calls[BUILD_RULE]
        gens = sum(self.calls_at[name, "rii.quadrature"] for name in GENERATORS)
        polish = [self.under[EVAL, parent] for parent in (BUILD_RULE, "quadrature.real_zeros")]
        weight = [self.under[EVAL, parent] for parent in WEIGHTS]
        spectral = calls["cfrac.spectral_residual"]
        poles = self.raised["cfrac.spectral_residual", "PoleError"]
        samples = self.samples
        sample_s = total["density.sample_density"]
        values = {
            "cli.self_s": self_time["cli.main"],
            "tables.self_s": self._layer("tables", self_time),
            "tables.rules_built": self.calls_at[BUILD_RULE, "rii.tables"],
            "tables.calibrations": self.calls_at["quadrature.calibrate_m0", "rii.tables"],
            "quadrature.rules": rules,
            "quadrature.roots_s": self_time[BUILD_RULE],
            "quadrature.polish_evals": sum(p[0] for p in polish),
            "quadrature.polish_s": sum(p[1] for p in polish),
            "quadrature.calibrate_s": total["quadrature.calibrate_m0"],
            "quadrature.weights_s": sum(total[name] for name in WEIGHTS),
            "quadrature.weight_evals": sum(p[0] for p in weight),
            "quadrature.estimate_s": total["quadrature.estimate"],
            "quadrature.family_gens": gens,
            "quadrature.gens_per_rule": gens / rules if rules else 0.0,
            "sequences.calls": self._layer("sequences", calls),
            "sequences.self_s": self._layer("sequences", self_time),
            "sequences.polys_built": self.polys_built,
            "sequences.coeff_bits_max": self.coeff_bits_max,
            "poly.mul_calls": calls["poly.__mul__"],
            "poly.mul_s": self_time["poly.__mul__"],
            "poly.eval_calls": calls[EVAL],
            "poly.eval_s": self_time[EVAL],
            "exact.simplify_calls": calls["exact.simplify_scalar"],
            "exact.simplify_s": self_time["exact.simplify_scalar"],
            "schemes.lookups": self._layer("schemes", calls),
            "schemes.self_s": self._layer("schemes", self_time),
            "transfer.calls": self._layer("transfer", calls),
            "transfer.self_s": self._layer("transfer", self_time),
            "polymat.matmul_calls": calls["polymat.__matmul__"],
            "polymat.self_s": self._layer("polymat", self_time),
            "oprl.calls": self._layer("oprl", calls),
            "oprl.self_s": self._layer("oprl", self_time),
            "cfrac.spectral_calls": spectral,
            "cfrac.pole_skips": poles,
            "cfrac.z_hit_ratio": (spectral - poles) / spectral if spectral else 0.0,
            "cfrac.self_s": self._layer("cfrac", self_time),
            "suites.instances": self.suite_instances,
            "suites.failures": self.suite_failures,
            "density.lagrange_build_s": total["density.lagrange_density"],
            "density.spline_build_s": total["density.spline_density"],
            "density.sample_s": sample_s,
            "density.samples": samples,
            "density.sample_us": 1e6 * sample_s / samples if samples else 0.0,
            "integrands.evals": calls["integrands.eval"],
            "integrands.self_s": self_time["integrands.eval"],
        }
        for suite in SUITE_NAMES:
            values["suites.%s_s" % suite] = self.suite_elapsed[suite]
        return values

def combine(runs):
    """Per-layer metrics over several traced passes of identical inputs.

    Counts come from the first pass (the caller checks that they repeat);
    times are the median over passes.
    """
    first = runs[0]
    return {name: first[name] if name in COUNT_METRICS
            else statistics.median(run[name] for run in runs)
            for name in first}
