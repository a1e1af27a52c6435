"""Command-line front end.

Subcommands: poly, zeros, quad, table, measure, check, flip.  Output is
deterministic for fixed arguments and seed.  Every subcommand but check
builds its result once -- a JSON document, CSV rows and text lines -- and
prints it through one emitter, `_emit`: JSON with sorted keys, a "schema"
version field and every float rounded to --precision significant digits
(10 by default); CSV with a header row, LF line endings and floats to the
same digits; text as given, or the CSV when a command has no text form.
Library errors (complex zeros, poles, bad schemes) exit 1 with an
"error: ..." line on stderr; usage errors exit 2.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import logging
import os
import sys
from dataclasses import dataclass

# submodules, not their functions: each one runs on the first call into it
# (see the package docstring), so a command runs only what it calls
from . import (density, errors, exact, integrands, quadrature, schemes, sequences, suites,
               tables)

log = logging.getLogger("rii")

SCHEMA_VERSION = 1

# the largest --precision that "%.*g" takes: it reads the digits as a C int
MAX_PRECISION = 2 ** 31 - 1

OUT_FORMATS = ("text", "csv", "json")

# the keys of suites.SUITES, sorted: named here so that building the parser
# runs no suite code (a test keeps the two equal)
SUITE_NAMES = ("oprl", "spectral", "structural", "transfer")


def _fmt(value, precision):
    if isinstance(value, float):
        return "%.*g" % (precision, value)
    return "" if value is None else str(value)


def _rounded(value, precision):
    """value with every float, at any depth, rounded to `precision` digits."""
    if isinstance(value, float):
        return float(_fmt(value, precision))
    if isinstance(value, dict):
        return {k: _rounded(v, precision) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(v, precision) for v in value]
    return value


def _emit(out, precision, document, columns, rows, text=None):
    """Print `document` (json), `rows` under `columns` (csv) or `text` lines."""
    if out == "json":
        json.dump(_rounded({"schema": SCHEMA_VERSION, **document}, precision),
                  sys.stdout, sort_keys=True, indent=2)
        sys.stdout.write("\n")
    elif out == "csv" or text is None:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c, ""), precision) for c in columns])
    else:
        for line in text:
            print(line)


def _load_scheme(spec_text):
    if spec_text == "cauchy":
        return schemes.cauchy_scheme()
    if os.path.exists(spec_text):
        with open(spec_text, "r", encoding="utf-8") as handle:
            return schemes.CoefficientScheme.from_json(handle.read())
    return schemes.CoefficientScheme.from_json(spec_text)


def _perturbation_from_args(args):
    """The --mu/--k and --nu/--kp perturbation; a --mu or --nu that is not a
    rational raises ValueError naming the flag."""
    mu = None if args.mu is None else exact.named_rational(args.mu, "--mu")
    nu = None if args.nu is None else exact.named_rational(args.nu, "--nu")
    return schemes.Perturbation(k=args.k if mu is not None else None, mu=mu,
                                kp=args.kp if nu is not None else None, nu=nu)


@dataclass(frozen=True)
class ExperimentConfig:
    """A reproducible experiment: scheme, perturbations, sizes, integrand.

    Round-trips losslessly through JSON (rationals as "p/q" strings; the
    document carries a schema version).
    """
    scheme: object            # CoefficientScheme
    perturbations: tuple      # of Perturbation
    n_values: tuple           # of int
    integrand: str = "example3"
    out: str = "text"

    def to_dict(self):
        return {
            "schema": SCHEMA_VERSION,
            "scheme": self.scheme.to_dict(),
            "perturbations": [p.to_dict() for p in self.perturbations],
            "n": list(self.n_values),
            "integrand": self.integrand,
            "out": self.out,
        }

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ValueError("a config is a JSON object")
        if data.get("schema") != SCHEMA_VERSION:
            raise ValueError("unsupported config schema %r" % (data.get("schema"),))
        integrand = data.get("integrand", "example3")
        if not isinstance(integrand, str):
            raise ValueError("config integrand must be a string, got %r" % (integrand,))
        out = data.get("out", "text")
        if out not in OUT_FORMATS:
            raise ValueError("config out must be one of %s, got %r"
                             % (", ".join(OUT_FORMATS), out))
        for key in ("perturbations", "n"):
            # a string or an object would be iterated by character or by key
            if not isinstance(data.get(key, []), list):
                raise ValueError("malformed config: %s must be a JSON array, got %r"
                                 % (key, data[key]))
        if data.get("n") == []:
            raise ValueError("malformed config: n must list at least one size")
        try:
            return cls(
                scheme=schemes.CoefficientScheme.from_dict(data["scheme"]),
                perturbations=tuple(
                    schemes.Perturbation.from_dict(p, "perturbations[%d]" % i)
                    for i, p in enumerate(data["perturbations"])),
                n_values=tuple(exact.integer(n, "n") for n in data["n"]),
                integrand=integrand,
                out=out,
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError("malformed config: %s %s" % (type(exc).__name__, exc)) from None

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
        except RecursionError as exc:    # nested deeper than the decoder goes
            raise ValueError("malformed config: %s" % exc) from None
        return cls.from_dict(data)

    def __eq__(self, other):
        if not isinstance(other, ExperimentConfig):
            return NotImplemented
        return self.to_dict() == other.to_dict()


# --- subcommands -----------------------------------------------------------

def _cmd_poly(args):
    scheme = _load_scheme(args.scheme)
    pert = _perturbation_from_args(args)
    kinds = ("first", "second") if args.kind == "both" else (args.kind,)
    entries = list(zip(kinds, sequences.family_ends(scheme, pert, args.n, kinds)))
    document = {"polynomials": [
        {"kind": kind, "n": args.n, "coefficients": [str(c) for c in p.coeffs]}
        for kind, p in entries]}
    rows = [{"kind": kind, "n": args.n, "j": j, "coefficient": str(c)}
            for kind, p in entries for j, c in enumerate(p.coeffs)]
    labels = {"first": "P", "second": "Q"}
    text = ["%s_%d(x) = %s" % (labels[kind], args.n, p) for kind, p in entries]
    _emit(args.out, args.precision, document, ("kind", "n", "j", "coefficient"), rows,
          text)
    return 0


def _cmd_zeros(args):
    scheme = _load_scheme(args.scheme)
    pert = _perturbation_from_args(args)
    zeros = quadrature.perturbed_zeros(scheme, pert, args.n)
    _emit(args.out, args.precision, {"n": args.n, "zeros": zeros}, ("j", "zero"),
          [{"j": j + 1, "zero": z} for j, z in enumerate(zeros)],
          [_fmt(z, args.precision) for z in zeros])
    return 0


def _run_quad_once(scheme, pert, n, integrand):
    """One quad result row; rationals and levels as strings, None if absent."""
    value = quadrature.estimate(quadrature.build_rule(scheme, pert, n), integrand)
    log.info("quad n=%d -> %s", n, value)
    fields = {"n": n, "mu": pert.mu, "k": pert.k, "nu": pert.nu, "kp": pert.kp}
    return {**{k: None if v is None else str(v) for k, v in fields.items()},
            "I_star": value}


def _cmd_quad(args):
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            config = ExperimentConfig.from_json(handle.read())
    elif args.n is None:
        raise ValueError("--n is required without --config")
    else:
        config = ExperimentConfig(_load_scheme(args.scheme), (_perturbation_from_args(args),),
                                  (args.n,), args.integrand)
    integrand = integrands.parse_integrand(config.integrand)
    rows = [_run_quad_once(config.scheme, pert, n, integrand)
            for pert in config.perturbations or (schemes.Perturbation.none(),)
            for n in config.n_values]
    _emit(args.out or config.out, args.precision, {"results": rows},
          ("n", "mu", "k", "nu", "kp", "I_star"), rows,
          [_fmt(row["I_star"], args.precision) for row in rows])
    return 0


def _cmd_table(args):
    report = tables.reproduce_table(args.id)
    _emit(args.out, args.precision,
          {"table": report.table_id, "max_deviation": report.max_deviation,
           "flagged": report.flagged, "rows": report.rows},
          report.columns, report.rows)
    if args.out == "text":
        print("# max |computed - reference| = %s over %d cells (%d flagged)"
              % (_fmt(report.max_deviation, args.precision),
                 len(report.rows), report.flagged))
    return 0


def _cmd_measure(args):
    scheme = _load_scheme(args.scheme)
    pert = _perturbation_from_args(args)
    rule = quadrature.build_rule(scheme, pert, args.n)
    build = density.lagrange_density if args.method == "lagrange" else density.spline_density
    approx = build(rule.nodes, rule.weights)
    x_min = args.x_min if args.x_min is not None else rule.nodes[0]
    x_max = args.x_max if args.x_max is not None else rule.nodes[-1]
    samples = density.sample_density(approx, x_min, x_max, args.samples)
    rows = [{"x": x, "density": v, "flag": flag} for x, v, flag in samples]
    _emit(args.out, args.precision, {"method": args.method, "n": args.n, "samples": rows},
          ("x", "density", "flag"), rows)
    return 0


def _cmd_check(args):
    names = SUITE_NAMES if args.suite == "all" else [args.suite]
    failed = 0
    for name in names:
        result = suites.run_suite(name, seed=args.seed, instances=args.instances)
        log.info("suite %s finished in %.2fs", name, result.elapsed)
        print("%s: %d instances, %d failures"
              % (result.name, result.instances, len(result.failures)))
        for failure in result.failures[:5]:
            print("  failure: %s" % json.dumps(failure, sort_keys=True, default=str))
        for record in result.skipped[:5]:
            print("  skipped: %s" % json.dumps(record, sort_keys=True, default=str))
        failed += len(result.failures)
    return 1 if failed else 0


def _cmd_flip(args):
    scheme = _load_scheme(args.scheme)
    mu, nu = exact.named_rational(args.mu, "--mu"), exact.named_rational(args.nu, "--nu")
    try:
        pairs = []
        for chunk in args.pairs.split(","):
            k_text, kp_text = chunk.split(":")
            pairs.append((int(k_text), mu, int(kp_text), nu))
    except (ValueError, TypeError):
        raise ValueError("--pairs expects 'k:kp[,k:kp...]', got %r" % args.pairs)
    report = tables.order_flip_experiment(scheme, pairs, args.n)
    rows = [{"k": r["k"], "mu": str(r["mu"]), "kp": r["kp"], "nu": str(r["nu"]),
             "I_star": r["I_star"], "dev": r["dev"]} for r in report.rows]
    median = report.median_row
    tail = {"k": report.median_level, "mu": str(median["mu"]),
            "kp": report.median_level, "nu": str(median["nu"]),
            "I_star": median["I_star"], "dev": median["dev"]}
    text = ["mu_%(k)d=%(mu)s, nu_%(kp)d=%(nu)s: I* = %(istar)s, |I*-E| = %(dev)s"
            % {**row, "istar": _fmt(row["I_star"], args.precision),
               "dev": _fmt(row["dev"], args.precision)} for row in rows]
    text.append("median level %d: I* = %s" % (
        report.median_level, _fmt(median["I_star"], args.precision)))
    text.append("average of flipped rows = %s (gap from median %s)" % (
        _fmt(report.average, args.precision), _fmt(report.average_gap, args.precision)))
    _emit(args.out, args.precision,
          {"n": report.n, "rows": rows, "median_level": report.median_level,
           "median_I_star": median["I_star"], "average": report.average,
           "average_gap": report.average_gap},
          ("k", "mu", "kp", "nu", "I_star", "dev"), rows + [tail], text)
    return 0


# --- parser ------------------------------------------------------------------

def _add_scheme_arg(parser):
    parser.add_argument("--scheme", default="cauchy",
                        help="'cauchy' (default), a scheme JSON file, or inline JSON")


def _add_pert_args(parser):
    parser.add_argument("--mu", default=None,
                        help="co-recursion size (rational, e.g. 0.1 or 1/10)")
    parser.add_argument("--k", type=int, default=0,
                        help="co-recursion level (default 0; used when --mu is given)")
    parser.add_argument("--nu", default=None,
                        help="co-dilation factor (positive rational)")
    parser.add_argument("--kp", type=int, default=1,
                        help="co-dilation level (default 1; used when --nu is given)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rii",
        description="Recurrence identities, quadrature tables, and measure "
                    "approximation for perturbed R_II-type schemes.")
    parser.add_argument("--precision", type=int, default=10,
                        help="significant digits for printed floats, at least 1 "
                             "(default 10)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poly", help="print a recurrence polynomial")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=("first", "second", "both"), default="first")
    p.add_argument("--out", choices=OUT_FORMATS, default="text")
    _add_scheme_arg(p)
    _add_pert_args(p)
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser("zeros", help="real zeros of P_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", choices=OUT_FORMATS, default="text")
    _add_scheme_arg(p)
    _add_pert_args(p)
    p.set_defaults(func=_cmd_zeros)

    p = sub.add_parser("quad", help="n-point quadrature estimate of an integrand")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--integrand", default="example3",
                   help="builtin id or expression in x (default example3)")
    p.add_argument("--config", default=None,
                   help="ExperimentConfig JSON file (overrides --n and perturbation flags)")
    p.add_argument("--out", choices=OUT_FORMATS, default=None)
    _add_scheme_arg(p)
    _add_pert_args(p)
    p.set_defaults(func=_cmd_quad)

    p = sub.add_parser("table", help="recompute a bundled reference table")
    p.add_argument("--id", choices=("t1", "t2", "t3", "t4", "t5", "t6"), required=True)
    p.add_argument("--out", choices=OUT_FORMATS, default="csv")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("measure", help="sample a density approximation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("lagrange", "spline"), default="lagrange")
    p.add_argument("--samples", type=int, default=400)
    p.add_argument("--x-min", type=float, default=None, dest="x_min")
    p.add_argument("--x-max", type=float, default=None, dest="x_max")
    p.add_argument("--out", choices=OUT_FORMATS, default="csv")
    _add_scheme_arg(p)
    _add_pert_args(p)
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("check", help="run the randomized identity suites")
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=None)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("flip", help="swap co-recursion/co-dilation levels and compare")
    p.add_argument("--pairs", default="3:7,4:6", help="comma-separated k:kp pairs")
    p.add_argument("--mu", default="0.01")
    p.add_argument("--nu", default="1.004")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--out", choices=OUT_FORMATS, default="text")
    _add_scheme_arg(p)
    p.set_defaults(func=_cmd_flip)

    return parser


# parse_args leaves the parser as it found it, so one serves every call of
# main in a process; building it costs about 2 ms
_parser = functools.cache(build_parser)

# numpy's BLAS thread pools: the seeds' small eigenproblems need one thread,
# and a cold `rii quad` or `rii table` starts ~0.08 s sooner (2-core host)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None):
    for name in THREAD_VARS:      # before the first root finding imports numpy
        os.environ.setdefault(name, "1")
    try:
        logging.basicConfig(level=os.environ.get("LOG_LEVEL", "WARNING").upper())
    except ValueError:
        logging.basicConfig(level=logging.WARNING)
    parser = _parser()
    args = parser.parse_args(argv)
    if args.precision < 1:
        parser.error("--precision must be at least 1, got %d" % args.precision)
    if args.precision > MAX_PRECISION:
        parser.error("--precision must be at most %d, got %d"
                     % (MAX_PRECISION, args.precision))
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe: send what is left to devnull so the
        # flush at shutdown cannot fail again, and exit 1 silently
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except (errors.RiiError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
