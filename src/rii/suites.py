"""Randomized exact-arithmetic verification suites.

`run_suite` runs every suite: it seeds one `random.Random`, times the run
and calls the suite's check once per instance.  Each check draws its
instance (schemes of all three weight-factor kinds, perturbation levels
0 <= k <= k' <= n, rational mu/nu/z) and tests the corresponding identity in
exact arithmetic.  A nonzero residual is recorded with every input of the
failing identity call, as strings and `to_dict()` forms, so
`CoefficientScheme.from_dict` and `Perturbation.from_dict` replay the
instance on its own.  A correct build reports zero failures for every seed.
An instance whose identity cannot be evaluated at any z, because a
denominator vanishes identically, is recorded as skipped, not failed.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from .cfrac import singular_index, spectral_residual, spectral_transform
from .errors import PoleError
from .oprl import MobiusParams, coprl_structural, corrected_vs_flawed, mobius_check, reduce_to_oprl
from .poly import Poly
from .schemes import CoefficientScheme, Perturbation
from .transfer import structural_residual, transfer_residual

SHAPES = ("corec", "codil", "both")
Z_POINTS = 20      # spectral z per instance
Z_ATTEMPTS = 800   # draws before a spectral instance counts as out of z


@functools.lru_cache(maxsize=1024)
def _fraction(p, q):
    """Fraction(p, q), built once per (p, q) the suites draw (a few hundred);
    a memo, not a table, so a wide range builds only what it draws."""
    return Fraction(p, q)


def random_rational(rng, low=-4, high=4, max_den=4, nonzero=False, positive=False):
    """Fraction(rng.randint(low, high), rng.randint(1, max_den)), drawn again
    while it is 0 (nonzero) or not above 0 (positive).

    rng is a `random.Random`, and each randint is drawn as randint draws it
    (`_randint`): the same draws, leaving the same generator state.
    """
    if low > high or max_den < 1:
        raise ValueError("empty range for random_rational")
    bits = rng.getrandbits
    while True:
        p = _randint(bits, low, high)
        q = _randint(bits, 1, max_den)
        if (positive and p <= 0) or (nonzero and p == 0):
            continue
        return _fraction(p, q)


def _randint(getrandbits, a, b):
    """random.Random.randint(a, b) for a <= b, without its argument checks:
    a + r, r = getrandbits(k) for k the bit length of b - a + 1, drawn again
    while r > b - a, as CPython 3.10-3.13 draw it."""
    width = b - a + 1
    k = width.bit_length()
    r = getrandbits(k)
    while r >= width:
        r = getrandbits(k)
    return a + r


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
    shape = shape or rng.choice(SHAPES)
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
    points: int = 0                               # spectral z checked

    def ok(self):
        return not self.failures

    def summary(self):
        return "%s: %d instances, %d failures (%.2fs)" % (
            self.name, self.instances, len(self.failures), self.elapsed)


def _structural(rng, i, result):
    """Scalar structural identities (first and second kind) at a random z, n <= 12."""
    scheme = random_scheme(rng, 18)
    n = rng.randint(2, 12)
    pert = random_perturbation(rng, n, SHAPES[i % 3])
    z = random_rational(rng, low=-6, high=6, max_den=5)
    residuals = structural_residual(scheme, pert, n, z)
    if any(residuals):
        result.failures.append(dict(
            instance=i, scheme=scheme.to_dict(), n=n, perturbation=pert.to_dict(),
            z=str(z), residuals=tuple(str(r) for r in residuals)))


def _transfer(rng, i, result):
    """Matrix identity K_m F^T(mu,nu) = S F^T as exact polynomials, plus the
    closed-form entry construction of S against the product form; n <= 12."""
    scheme = random_scheme(rng, 18)
    pert = random_perturbation(rng, rng.randint(1, 10), SHAPES[i % 3])
    m = pert.max_level()
    n = rng.randint(m, min(12, m + 3))
    entries, identity = transfer_residual(scheme, pert, n)
    for kind, residual in (("entry-construction", entries), ("matrix-identity", identity)):
        if not residual.is_zero():
            result.failures.append(dict(
                instance=i, scheme=scheme.to_dict(), n=n, perturbation=pert.to_dict(),
                kind=kind))
            return


def _spectral(rng, i, result):
    """Matched-truncation spectral identity at Z_POINTS rational z, levels <= 8.

    An instance that runs out of z is a failure unless a nested denominator
    of one of its two convergents is identically zero (e.g. at kp = 2 when
    rho_1 rho_2 (z - c_1)(z - c_2) == lam_2 W_2(z), the plain depth-3
    convergent has a pole everywhere); then it is skipped as degenerate.
    """
    scheme = random_scheme(rng, 16)
    pert = random_perturbation(rng, rng.randint(1, 8), SHAPES[i % 3])
    depth = pert.max_level() + 1 + rng.randint(0, 2)
    transform = spectral_transform(scheme, pert)
    hits = 0
    for _ in range(Z_ATTEMPTS):
        z = random_rational(rng, low=-9, high=9, max_den=7)
        try:
            residual = spectral_residual(scheme, pert, depth, z, transform)
        except PoleError:
            continue
        hits += 1
        if residual != 0:
            result.failures.append(dict(
                instance=i, scheme=scheme.to_dict(), perturbation=pert.to_dict(),
                z=str(z), depth=depth, residual=str(residual)))
        if hits == Z_POINTS:
            break
    result.points += hits
    if hits < Z_POINTS:
        singular = {label: singular_index(scheme, p, depth)
                    for label, p in (("perturbed", pert), ("plain", None))}
        record = dict(instance=i, depth=depth, scheme=scheme.to_dict(),
                      perturbation=pert.to_dict())
        if any(index is not None for index in singular.values()):
            result.skipped.append(dict(record, kind="singular-denominator",
                                       pole_index=singular))
        else:
            result.failures.append(dict(record, kind="pole-exhaustion"))


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


def _oprl(rng, i, result):
    """Reduction consistency, reduced-scheme structural identities, and the
    corrected-vs-flawed shifted-index comparison, n <= 8.  A record's scheme and
    Moebius parameters replay all three: reduced = reduce_to_oprl(scheme,
    mobius, len(rho) - 1)."""
    params = _random_mobius(rng)
    length = 12
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
    failure = _oprl_failure(rng, params, scheme, reduced)
    if failure:
        mobius = {name: str(value) for name, value in asdict(params).items()}
        result.failures.append(dict(failure, instance=i, scheme=scheme.to_dict(),
                                    mobius=mobius))


def _oprl_failure(rng, params, scheme, reduced):
    """The first of _oprl's three checks that fails, as a record, else None."""
    x = random_rational(rng, low=-5, high=5, max_den=5)
    while params.gamma * x + params.delta == 0:
        x = random_rational(rng, low=-5, high=5, max_den=5)
    n = rng.randint(2, 8)
    lhs, rhs = mobius_check(scheme, params, n, x, reduced)
    if lhs != rhs:
        return dict(kind="reduction", n=n, x=str(x), lhs=str(lhs), rhs=str(rhs))

    pert = random_perturbation(rng, n)
    if any(coprl_structural(reduced, pert, n, x)):
        return dict(kind="structural", perturbation=pert.to_dict(), n=n, x=str(x))

    k = rng.randint(1, 6)
    mu = random_rational(rng, nonzero=True)
    nu = random_rational(rng, low=1, high=8, positive=True)
    report = corrected_vs_flawed(reduced, k, mu, nu, x)
    shift = Poly((-(reduced.c(k + 1) + 1), 1))
    if report.corrected != report.direct or \
            report.discrepancy != -(report.correction * shift):
        return dict(kind="corrected-vs-flawed", k=k, mu=str(mu), nu=str(nu), x=str(x))
    return None


# name -> (per-instance check, default instance count)
SUITES = {
    "structural": (_structural, 100),
    "transfer": (_transfer, 100),
    "spectral": (_spectral, 25),
    "oprl": (_oprl, 50),
}


def run_suite(name, seed=0, instances=None):
    """Run suite `name` on `instances` instances (its default when None) drawn
    from random.Random(seed)."""
    if name not in SUITES:
        raise ValueError("unknown suite %r (expected one of %s)"
                         % (name, ", ".join(sorted(SUITES))))
    check, default = SUITES[name]
    if instances is None:
        instances = default
    elif instances < 1:
        raise ValueError("instances must be >= 1, got %d" % instances)
    rng = random.Random(seed)
    result = SuiteResult(name, instances)
    start = time.perf_counter()
    for i in range(instances):
        check(rng, i, result)
    result.elapsed = time.perf_counter() - start
    return result
