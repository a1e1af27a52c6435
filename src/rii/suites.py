"""Randomized exact-arithmetic verification suites.

Each suite draws schemes (all three weight-factor kinds), perturbation levels
0 <= k <= k' <= n, rational mu/nu/z, and checks the corresponding identity in
exact arithmetic: any nonzero residual is recorded with the full instance so
it can be replayed.  A correct build reports zero failures for every seed.
An instance whose identity cannot be evaluated at any z, because a
denominator vanishes identically, is recorded as skipped, not failed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .cfrac import singular_index, spectral_residual, spectral_transform
from .errors import PoleError
from .oprl import MobiusParams, coprl_structural, corrected_vs_flawed, mobius_check, reduce_to_oprl
from .poly import Poly
from .schemes import CoefficientScheme, Perturbation
from .transfer import (f_matrix, lambda_weight_product, perturbation_transfer,
                       structural_residual, transfer_entries)


def random_rational(rng, low=-4, high=4, max_den=4, nonzero=False, positive=False):
    while True:
        value = Fraction(rng.randint(low, high), rng.randint(1, max_den))
        if positive and value <= 0:
            continue
        if nonzero and value == 0:
            continue
        return value


def random_scheme(rng, length, kind=None):
    """A tabulated scheme with small rational coefficients and lam > 0."""
    kind = kind or rng.choice(("general", "special", "oprl"))
    rho = [random_rational(rng, nonzero=True) for _ in range(length)]
    c = [random_rational(rng) for _ in range(length)]
    lam = [random_rational(rng, low=1, high=6, positive=True) for _ in range(length)]
    if kind == "special":
        return CoefficientScheme.special(rho, c, lam,
                                         random_rational(rng, low=1, high=4, positive=True))
    if kind == "oprl":
        return CoefficientScheme.oprl(rho, c, lam)
    nodes = [(random_rational(rng), random_rational(rng)) for _ in range(length)]
    return CoefficientScheme.general(rho, c, lam, nodes)


def random_perturbation(rng, n, shape=None):
    """corec / codil / both with 0 <= k <= kp <= n (kp >= 1)."""
    shape = shape or rng.choice(("corec", "codil", "both"))
    mu = random_rational(rng, nonzero=True)
    nu = random_rational(rng, low=1, high=8, positive=True)
    if shape == "corec":
        return Perturbation.corec(rng.randint(0, n), mu)
    if shape == "codil":
        return Perturbation.codil(rng.randint(1, max(1, n)), nu)
    k = rng.randint(0, n)
    kp = rng.randint(max(1, k), max(1, n))
    return Perturbation.both(k, mu, kp, nu)


@dataclass
class SuiteResult:
    name: str
    instances: int
    failures: list = field(default_factory=list)
    elapsed: float = 0.0
    skipped: list = field(default_factory=list)   # degenerate instances

    def ok(self):
        return not self.failures

    def summary(self):
        return "%s: %d instances, %d failures (%.2fs)" % (
            self.name, self.instances, len(self.failures), self.elapsed)


def _record(failures, **info):
    failures.append(info)


def suite_structural(seed=0, instances=100, n_max=12):
    """Scalar structural identities (first and second kind) at random z."""
    rng = random.Random(seed)
    start = time.perf_counter()
    failures = []
    shapes = ("corec", "codil", "both")
    for i in range(instances):
        scheme = random_scheme(rng, n_max + 6)
        n = rng.randint(2, n_max)
        pert = random_perturbation(rng, n, shapes[i % 3])
        z = random_rational(rng, low=-6, high=6, max_den=5)
        r_first, r_second = structural_residual(scheme, pert, n, z)
        if r_first != 0 or r_second != 0:
            _record(failures, instance=i, scheme=scheme.to_dict(), n=n,
                    perturbation=pert.to_dict(), z=str(z),
                    residuals=(str(r_first), str(r_second)))
    return SuiteResult("structural", instances, failures, time.perf_counter() - start)


def suite_transfer(seed=0, instances=100, n_max=12):
    """Matrix identity K_m F^T(mu,nu) = S F^T as exact polynomials, plus the
    closed-form entry construction of S against the product form."""
    rng = random.Random(seed)
    start = time.perf_counter()
    failures = []
    shapes = ("corec", "codil", "both")
    for i in range(instances):
        scheme = random_scheme(rng, n_max + 6)
        pert = random_perturbation(rng, rng.randint(1, n_max - 2), shapes[i % 3])
        m = pert.max_level()
        n = rng.randint(m, min(n_max, m + 3))
        s = perturbation_transfer(scheme, pert)
        entries = transfer_entries(scheme, pert)
        if entries != s:
            _record(failures, instance=i, scheme=scheme.to_dict(),
                    perturbation=pert.to_dict(), kind="entry-construction")
            continue
        kappa = lambda_weight_product(scheme, None, m)
        lhs = f_matrix(scheme, pert, n).transpose().scale(kappa)
        rhs = s @ f_matrix(scheme, None, n).transpose()
        if not (lhs - rhs).is_zero():
            _record(failures, instance=i, scheme=scheme.to_dict(), n=n,
                    perturbation=pert.to_dict(), kind="matrix-identity")
    return SuiteResult("transfer", instances, failures, time.perf_counter() - start)


def suite_spectral(seed=0, instances=25, z_count=20, n_max=8):
    """Matched-truncation spectral identity at z_count rational z per instance.

    An instance that runs out of z is a failure unless a nested denominator
    of one of its two convergents is identically zero (e.g. at kp = 2 when
    rho_1 rho_2 (z - c_1)(z - c_2) == lam_2 W_2(z), the plain depth-3
    convergent has a pole everywhere); then it is skipped as degenerate.
    """
    rng = random.Random(seed)
    start = time.perf_counter()
    failures = []
    skipped = []
    shapes = ("corec", "codil", "both")
    checked = 0
    for i in range(instances):
        scheme = random_scheme(rng, n_max + 8)
        pert = random_perturbation(rng, rng.randint(1, n_max), shapes[i % 3])
        depth = pert.max_level() + 1 + rng.randint(0, 2)
        transform = spectral_transform(scheme, pert)
        hits = 0
        attempts = 0
        while hits < z_count and attempts < 40 * z_count:
            attempts += 1
            z = random_rational(rng, low=-9, high=9, max_den=7)
            try:
                residual = spectral_residual(scheme, pert, depth, z, transform)
            except PoleError:
                continue
            hits += 1
            checked += 1
            if residual != 0:
                _record(failures, instance=i, scheme=scheme.to_dict(),
                        perturbation=pert.to_dict(), z=str(z), depth=depth,
                        residual=str(residual))
        if hits < z_count:
            singular = {label: singular_index(scheme, p, depth)
                        for label, p in (("perturbed", pert), ("plain", None))}
            if any(index is not None for index in singular.values()):
                _record(skipped, instance=i, kind="singular-denominator",
                        depth=depth, pole_index=singular,
                        scheme=scheme.to_dict(), perturbation=pert.to_dict())
            else:
                _record(failures, instance=i, kind="pole-exhaustion",
                        scheme=scheme.to_dict(), perturbation=pert.to_dict())
    result = SuiteResult("spectral", instances, failures, time.perf_counter() - start,
                         skipped)
    result.points = checked
    return result


def _random_mobius(rng):
    while True:
        a = random_rational(rng)
        gamma = random_rational(rng, nonzero=True)
        delta = random_rational(rng)
        beta = random_rational(rng)
        alpha = gamma * a
        if alpha * delta - beta * gamma == 0:
            continue
        if beta == a * delta:
            continue
        return MobiusParams(alpha, beta, gamma, delta, a)


def suite_oprl(seed=0, instances=50, n_max=8):
    """Reduction consistency, reduced-scheme structural identities, and the
    corrected-vs-flawed shifted-index comparison."""
    rng = random.Random(seed)
    start = time.perf_counter()
    failures = []
    for i in range(instances):
        params = _random_mobius(rng)
        length = n_max + 4
        rho = [random_rational(rng, nonzero=True) for _ in range(length)]
        c = []
        for _ in range(length):
            value = random_rational(rng)
            while value == params.a:  # keep alpha - gamma c_n away from zero
                value = random_rational(rng)
            c.append(value)
        lam = [random_rational(rng, low=1, high=6, positive=True) for _ in range(length)]
        scheme = CoefficientScheme.general(rho, c, lam, [(params.a, params.a)] * length)
        reduced = reduce_to_oprl(scheme, params, length - 1)

        x = random_rational(rng, low=-5, high=5, max_den=5)
        while params.gamma * x + params.delta == 0:
            x = random_rational(rng, low=-5, high=5, max_den=5)
        n = rng.randint(2, n_max)
        lhs, rhs = mobius_check(scheme, params, n, x)
        if lhs != rhs:
            _record(failures, instance=i, kind="reduction", n=n, x=str(x),
                    lhs=str(lhs), rhs=str(rhs))
            continue

        pert = random_perturbation(rng, n)
        residuals = coprl_structural(reduced, pert, n, x)
        if residuals[0] != 0 or residuals[1] != 0:
            _record(failures, instance=i, kind="structural",
                    perturbation=pert.to_dict(), n=n, x=str(x))
            continue

        k = rng.randint(1, n_max - 2)
        mu = random_rational(rng, nonzero=True)
        nu = random_rational(rng, low=1, high=8, positive=True)
        report = corrected_vs_flawed(reduced, k, mu, nu, x)
        shift = Poly((-(reduced.c(k + 1) + 1), 1))
        if report.corrected != report.direct or \
                report.discrepancy != -(report.correction * shift):
            _record(failures, instance=i, kind="corrected-vs-flawed",
                    k=k, mu=str(mu), nu=str(nu))
    return SuiteResult("oprl", instances, failures, time.perf_counter() - start)


SUITES = {
    "structural": suite_structural,
    "transfer": suite_transfer,
    "spectral": suite_spectral,
    "oprl": suite_oprl,
}


def run_suite(name, seed=0, instances=None):
    if name not in SUITES:
        raise ValueError("unknown suite %r (expected one of %s)"
                         % (name, ", ".join(sorted(SUITES))))
    kwargs = {"seed": seed}
    if instances is not None:
        if instances < 1:
            raise ValueError("instances must be >= 1, got %d" % instances)
        kwargs["instances"] = instances
    return SUITES[name](**kwargs)
