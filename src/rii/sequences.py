"""The recurrence step, the one loop that iterates it, and the families it builds.

Step m of the (optionally perturbed) recurrence is

    u_{i+1} = rho_m (z - c*_m) u_i - lambda*_m W_m(z) u_{i-1},   m = shift + i,

with c*_m and lambda*_m the co-recursed center and co-dilated coefficient.
`center_term` and `weight_term` build its two terms, as a Poly or as a value
at z; `iterate` is the only forward loop.  The families differ only in
initial values and index shift:

* first kind:            (u_{-1}, u_0) = (0, 1), shift 0  ->  P_n, deg n
* second kind:           (u_0, u_1)  = (0, 1), shift 0  ->  Q_n, deg n-1
* associated, order j+1: same two initial choices with shift j+1
  (first-kind initials G_0 = 1 by default; second-kind on request)

Perturbations are applied by absolute coefficient index, so shifted sequences
and truncated continued fractions see exactly the same modified steps.  The
step terms also make up transfer's step matrices and cfrac's convergents;
oprl's monic families and quadrature's M_0 calibration run `iterate`.
`gen_both_kinds` builds the step terms once and iterates both kinds over them,
for callers that need P and Q of one perturbation.

All of it is exact: the public evaluators take a float or complex z as the
exact rational it stores and round the exact result once on the way out.

At a rational z (an int, a Fraction, or the binary rational of a float) with
real step terms, `iterate` runs on Python ints, fraction-free in the manner of
Bareiss: step m is scaled by s_m, the lcm of the denominators of its two
terms a_m = rho_m (z - c*_m) and b_m = lambda*_m W_m(z), so that

    v_{i+1} = (s_m a_m) v_i - (s_m s_{m-1} b_m) v_{i-1},   v_i = D_i u_i,

with D_i the product of the scales of the steps before i; each u_i =
Fraction(v_i, D_i) costs one gcd.  A step term is zero exactly when its
scaled form is.  Gaussian points and non-real W_m(z) take the generic path,
`iterate` over Fraction and GaussianRational scalars.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import GaussianRational, exact_point, rounded
from .poly import Poly
from .schemes import Perturbation


def center_term(scheme, pert, m, z=None):
    """rho_m (z - c*_m): a Poly when z is None, else its value at an exact z."""
    rho = scheme.rho(m)
    c = pert.center(scheme, m)
    if z is None:
        return Poly((-rho * c, rho))
    return rho * (z - c)


def weight_term(scheme, pert, m, z=None):
    """lambda*_m W_m(z) (m >= 1): a Poly when z is None, else its value at an exact z."""
    lam = pert.coefficient(scheme, m)
    if z is None:
        return lam * scheme.weight_poly(m)
    return lam * scheme.weight_at(m, z)


def cleared_terms(scheme, pert, m, k, z):
    """(s, s a, s b) as ints at a rational z, or None when W_k(z) is not real.

    a = rho_m (z - c*_m) and b = lambda*_k W_k(z) (b = 0 when k is None) are
    reduced, and s is the lcm of their denominators.
    """
    p, q = z.as_integer_ratio()
    rho = scheme.rho(m)
    c = pert.center(scheme, m)
    an = rho.numerator * (p * c.denominator - c.numerator * q)
    ad = rho.denominator * q * c.denominator
    g = math.gcd(an, ad)
    an, ad = an // g, ad // g
    if k is None:
        return ad, an, 0
    try:
        wn, wd = scheme.weight_poly(k).ratio_at(z)
    except TypeError:       # Gaussian coefficients: W_k(z) may be non-real
        return None
    lam = pert.coefficient(scheme, k)
    bn, bd = lam.numerator * wn, lam.denominator * wd
    g = math.gcd(bn, bd)
    bn, bd = bn // g, bd // g
    s = math.lcm(ad, bd)
    return s, an * (s // ad), bn * (s // bd)


def iterate(a, b, kind, n, shift=0, one=1, zero=0):
    """u_0..u_n of u_{i+1} = a(m) u_i - b(m) u_{i-1}, m = shift + i, as a list.

    kind "first" starts from (u_{-1}, u_0) = (zero, one), kind "second" from
    (u_0, u_1) = (zero, one).
    """
    if n < 0:
        raise ValueError("n must be >= 0, got %d" % n)
    if kind == "first":
        out = [one]
        start = 0
    elif kind == "second":
        out = [zero, one] if n >= 1 else [zero]
        start = 1
    else:
        raise ValueError("kind must be 'first' or 'second', got %r" % (kind,))
    lo, hi = zero, one
    for i in range(start, n):
        m = shift + i
        nxt = a(m) * hi
        if i:
            # lambda_m is only defined for m >= 1; the first-kind i=0 term
            # multiplies u_{-1} = 0 and is skipped rather than queried.
            nxt = nxt - b(m) * lo
        lo, hi = hi, nxt
        out.append(hi)
    return out


def _family(scheme, pert, kind, shift, n, z=None):
    """u_0..u_n of the scheme's recurrence: Polys when z is None, else values at an exact z."""
    pert = pert or Perturbation.none()
    if isinstance(z, (int, Fraction)):
        values = _rational_family(scheme, pert, kind, shift, n, z)
        if values is not None:
            return values
    if z is None:
        one, zero = Poly.one(), Poly.zero()
    else:
        one, zero = Fraction(1), Fraction(0)
    return iterate(lambda m: center_term(scheme, pert, m, z),
                   lambda m: weight_term(scheme, pert, m, z),
                   kind, n, shift, one, zero)


def _rational_family(scheme, pert, kind, shift, n, z):
    """u_0..u_n at a rational z, iterated on integers (see the module docstring);
    None when a step term is not real."""
    start = 0 if kind == "first" else 1
    a_int, b_int = {}, {}
    dens = [1] * (start + 1)     # D_0 (and D_1 = 1 for the second kind: v_0 = 0)
    prev = 1                     # s_{m-1}
    for m in range(shift + start, shift + n):
        # iterate skips b at the first-kind step 0, so it is not queried here
        terms = cleared_terms(scheme, pert, m, m if m > shift else None, z)
        if terms is None:
            return None
        s, a_int[m], b = terms
        b_int[m] = b * prev
        dens.append(dens[-1] * s)
        prev = s
    values = iterate(a_int.__getitem__, b_int.__getitem__, kind, n, shift)
    return [Fraction(v, d) for v, d in zip(values, dens)]


def gen_first_kind(scheme, perturbation, n):
    """P_0..P_n of the (optionally perturbed) recurrence."""
    return tuple(_family(scheme, perturbation, "first", 0, n))


def gen_second_kind(scheme, perturbation, n):
    """Q_0..Q_n (Q_0 = 0, Q_1 = 1); deg Q_n = n - 1.

    The recurrence's step 0 is never executed for this family, so a
    co-recursion at k = 0 leaves every Q_n unchanged.
    """
    return tuple(_family(scheme, perturbation, "second", 0, n))


def gen_both_kinds(scheme, perturbation, n):
    """(P_0..P_n, Q_0..Q_n): both families iterated over one list of step terms."""
    pert = perturbation or Perturbation.none()
    centers = [center_term(scheme, pert, m) for m in range(n)]
    weights = [None] + [weight_term(scheme, pert, m) for m in range(1, n)]
    return tuple(tuple(iterate(centers.__getitem__, weights.__getitem__, kind, n,
                               one=Poly.one(), zero=Poly.zero()))
                 for kind in ("first", "second"))


def gen_associated(scheme, j, n, kind="first"):
    """Associated sequence of order j+1: all coefficient indices shifted by j+1.

    kind "first" gives the G-family (G_0 = 1) used by the structural
    correction terms; kind "second" the H-family (H_0 = 0, H_1 = 1) whose
    ratio H_m/G_m is the tail convergent.
    """
    if j < 0:
        raise ValueError("associated order shift j must be >= 0")
    return tuple(_family(scheme, None, kind, j + 1, n))


def eval_recurrence_at(scheme, perturbation, kind, n, z):
    """u_n(z) by forward recurrence on scalars, never forming coefficients.

    Exact z (int/Fraction/GaussianRational) gives an exact scalar; a float or
    complex z gives the exact value at the point it stores, rounded once.
    """
    return rounded(_family(scheme, perturbation, kind, 0, n, exact_point(z))[n], z)


def eval_sequence_at(scheme, perturbation, kind, n, z, shift=0):
    """All of u_0(z)..u_n(z); same conventions as eval_recurrence_at."""
    x = exact_point(z)
    values = _family(scheme, perturbation, kind, shift, n, x)
    return values if x is z else [rounded(u, z) for u in values]


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
    "center_term",
    "weight_term",
    "cleared_terms",
    "iterate",
    "gen_first_kind",
    "gen_second_kind",
    "gen_both_kinds",
    "gen_associated",
    "eval_recurrence_at",
    "eval_sequence_at",
    "example_closed_form",
]
