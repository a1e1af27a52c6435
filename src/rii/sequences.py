"""Generation and evaluation of the recurrence's polynomial families.

All sequences here satisfy

    u_{i+1} = rho_m (z - c_m) u_i - lambda_m W_m(z) u_{i-1},   m = shift + i,

differing only in initial values and index shift:

* first kind:            (u_{-1}, u_0) = (0, 1), shift 0  ->  P_n, deg n
* second kind:           (u_0, u_1)  = (0, 1), shift 0  ->  Q_n, deg n-1
* associated, order j+1: same two initial choices with shift j+1
  (first-kind initials G_0 = 1 by default; second-kind on request)

Perturbations are applied by absolute coefficient index, so shifted sequences
and truncated continued fractions see exactly the same modified steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import GaussianRational
from .poly import Poly
from .schemes import CoefficientScheme, Perturbation, cauchy_scheme


@dataclass(frozen=True)
class PolySeq:
    """A generated prefix u_0..u_n of one polynomial family."""

    scheme: object
    perturbation: object
    kind: str          # "first" | "second"
    shift: int
    polys: tuple

    def __getitem__(self, i):
        return self.polys[i]

    def __len__(self):
        return len(self.polys)

    def __iter__(self):
        return iter(self.polys)


def _steps(scheme, pert, kind, shift, n, one, zero, step_a, step_b):
    """Shared recurrence loop; step_a/step_b build the two update terms."""
    if n < 0:
        raise ValueError("n must be >= 0, got %d" % n)
    if kind == "first":
        out = [one]
        lo, hi = zero, one
        start = 0
    elif kind == "second":
        out = [zero]
        if n >= 1:
            out.append(one)
        lo, hi = zero, one
        start = 1
    else:
        raise ValueError("kind must be 'first' or 'second', got %r" % (kind,))
    for i in range(start, n):
        m = shift + i
        nxt = step_a(m, hi)
        if not (kind == "first" and i == 0):
            # lambda_m is only defined for m >= 1; the first-kind i=0 term
            # multiplies u_{-1} = 0 and is skipped rather than queried.
            nxt = nxt - step_b(m, lo)
        lo, hi = hi, nxt
        out.append(hi)
    return out


def _generate_polys(scheme, pert, kind, shift, n):
    def step_a(m, u):
        rho = scheme.rho(m)
        c = pert.center(scheme, m)
        return Poly((-rho * c, rho)) * u

    def step_b(m, u):
        lam = pert.coefficient(scheme, m)
        return (lam * scheme.weight_poly(m)) * u

    return _steps(scheme, pert, kind, shift, n, Poly.one(), Poly.zero(), step_a, step_b)


def _generate_values(scheme, pert, kind, shift, n, z):
    numeric = isinstance(z, (float, complex))
    one = 1.0 if numeric else Fraction(1)
    zero = 0.0 if numeric else Fraction(0)

    def step_a(m, u):
        rho = scheme.rho(m)
        c = pert.center(scheme, m)
        if numeric:
            return float(rho) * (z - float(c)) * u
        return rho * (z - c) * u

    def step_b(m, u):
        lam = pert.coefficient(scheme, m)
        w = scheme.weight_at(m, z)
        if numeric:
            return float(lam) * w * u
        return lam * w * u

    return _steps(scheme, pert, kind, shift, n, one, zero, step_a, step_b)


def gen_first_kind(scheme, perturbation=None, n=0):
    """P_0..P_n of the (optionally perturbed) recurrence."""
    pert = perturbation or Perturbation.none()
    polys = _generate_polys(scheme, pert, "first", 0, n)
    return PolySeq(scheme, pert, "first", 0, tuple(polys))


def gen_second_kind(scheme, perturbation=None, n=1):
    """Q_0..Q_n (Q_0 = 0, Q_1 = 1); deg Q_n = n - 1.

    The recurrence's step 0 is never executed for this family, so a
    co-recursion at k = 0 leaves every Q_n unchanged.
    """
    pert = perturbation or Perturbation.none()
    polys = _generate_polys(scheme, pert, "second", 0, n)
    return PolySeq(scheme, pert, "second", 0, tuple(polys))


def gen_associated(scheme, j, n, kind="first"):
    """Associated sequence of order j+1: all coefficient indices shifted by j+1.

    kind "first" gives the G-family (G_0 = 1) used by the structural
    correction terms; kind "second" the H-family (H_0 = 0, H_1 = 1) whose
    ratio H_m/G_m is the tail convergent.
    """
    if j < 0:
        raise ValueError("associated order shift j must be >= 0")
    pert = Perturbation.none()
    polys = _generate_polys(scheme, pert, kind, j + 1, n)
    return PolySeq(scheme, pert, kind, j + 1, tuple(polys))


def eval_recurrence_at(scheme, perturbation, kind, n, z):
    """u_n(z) by forward recurrence on scalars, never forming coefficients.

    Exact z (int/Fraction/GaussianRational) gives an exact scalar; float or
    complex z runs in floating point.
    """
    pert = perturbation or Perturbation.none()
    values = _generate_values(scheme, pert, kind, 0, n, z)
    return values[n]


def eval_sequence_at(scheme, perturbation, kind, n, z, shift=0):
    """All of u_0(z)..u_n(z); same conventions as eval_recurrence_at."""
    pert = perturbation or Perturbation.none()
    return _generate_values(scheme, pert, kind, shift, n, z)


def example_closed_form(n):
    """Closed form of the worked example's P_n.

    Expands i*((x-i)/2)^(n+1) - i*((x+i)/2)^(n+1) over Gaussian rationals;
    the imaginary parts cancel and the result is returned over plain
    rationals.  Equals gen_first_kind(cauchy_scheme(), None, n)[n].
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    i = GaussianRational.i()
    half = Fraction(1, 2)
    minus = Poly((-i * half, half)) ** (n + 1)   # ((x - i)/2)^(n+1)
    plus = Poly((i * half, half)) ** (n + 1)     # ((x + i)/2)^(n+1)
    result = i * minus - i * plus
    for coeff in result.coeffs:
        if isinstance(coeff, GaussianRational):
            raise AssertionError("closed form produced a complex coefficient")
    return result


__all__ = [
    "PolySeq",
    "gen_first_kind",
    "gen_second_kind",
    "gen_associated",
    "eval_recurrence_at",
    "eval_sequence_at",
    "example_closed_form",
    "cauchy_scheme",
    "CoefficientScheme",
    "Perturbation",
]
