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
and truncated continued fractions see exactly the same modified steps.  A part
at level L first changes u_{L+1} (step L computes it), so the first L + 1
values u_0..u_L of either kind are those of the perturbation without its parts
at levels >= L: a perturbed family carries, as its prefixes, every family
perturbed only below a level.
`cleared_terms` is the only source of step terms for the families and for
cfrac's convergents; transfer's step matrices use `center_term` and
`weight_term`, and oprl's monic families and quadrature's M_0 calibration
run `iterate`.

Every family is one scaled loop: the step list is built once and each
requested kind is iterated over it, fraction-free in the manner of Bareiss.
Step m is scaled by s_m (`cleared_terms`), so that

    v_{i+1} = (s_m a_m) v_i - (s_m s_{m-1} b_m) v_{i-1},   v_i = D_i u_i,

with a_m = rho_m (z - c*_m), b_m = lambda*_m W_m(z) and D_i the product of
the scales of the steps before i.  The first kind starts from v_0 = 1, the
second from (v_0, v_1) = (0, s_shift), so both share one step list and one
list of D_i.  The scaling is exact for any s_m: at an int or Fraction z with
real W_m(z), s_m is the lcm of the denominators of a_m and b_m and the step
runs on Python ints; at every other step s_m = 1 and a_m, b_m are the exact
terms (Polys when z is None, Fraction or GaussianRational values at a
Gaussian point or a non-real W_m(z)).  Each u_i = v_i / D_i costs one gcd.

All of it is exact: the public evaluators take a float or complex z as the
exact rational it stores and round the exact result once on the way out.
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
    """(s, s a, s b) for a = rho_m (z - c*_m) and b = lambda*_k W_k(z) (b = 0
    when k is None): the only source of step terms.

    At an int or Fraction z with real W_k(z) the three are ints: a and b are
    reduced and s is the lcm of their denominators.  Everywhere else s = 1
    and a, b are the exact terms: Polys when z is None, else Fraction or
    GaussianRational values.
    """
    if isinstance(z, (int, Fraction)):
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
            pass
        else:
            lam = pert.coefficient(scheme, k)
            bn, bd = lam.numerator * wn, lam.denominator * wd
            g = math.gcd(bn, bd)
            bn, bd = bn // g, bd // g
            s = math.lcm(ad, bd)
            return s, an * (s // ad), bn * (s // bd)
    b = 0 if k is None else weight_term(scheme, pert, k, z)
    return 1, center_term(scheme, pert, m, z), b


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


def _families(scheme, pert, kinds, shift, n, z):
    """u_0..u_n of each kind in kinds, iterated over one list of scaled steps:
    Polys when z is None, else values at an exact z (see the module docstring)."""
    pert = pert or Perturbation.none()
    a, b = {}, {}
    dens = [1]                   # D_i, the product of the scales of the steps before i
    prev = 1                     # s_{m-1}
    for m in range(shift, shift + n):
        # iterate skips b at the first-kind step 0, so it is not queried here
        s, a[m], b[m] = cleared_terms(scheme, pert, m, m if m > shift else None, z)
        if prev != 1:
            b[m] *= prev
        dens.append(dens[-1] * s)
        prev = s
    one, zero = (Poly.one(), Poly.zero()) if z is None else (1, 0)
    out = []
    for kind in kinds:
        # the second kind starts from v_1 = D_1 u_1 = s_shift
        start = one * dens[1] if kind == "second" and n > 0 else one
        values = iterate(a.__getitem__, b.__getitem__, kind, n, shift, start, zero)
        if z is not None:
            values = [Fraction(v, d) if isinstance(v, int) else v / d
                      for v, d in zip(values, dens)]
        out.append(values)
    return out


def gen_first_kind(scheme, perturbation, n):
    """P_0..P_n of the (optionally perturbed) recurrence."""
    return tuple(_families(scheme, perturbation, ("first",), 0, n, None)[0])


def gen_second_kind(scheme, perturbation, n):
    """Q_0..Q_n (Q_0 = 0, Q_1 = 1); deg Q_n = n - 1.

    The recurrence's step 0 is never executed for this family, so a
    co-recursion at k = 0 leaves every Q_n unchanged.
    """
    return tuple(_families(scheme, perturbation, ("second",), 0, n, None)[0])


def gen_both_kinds(scheme, perturbation, n):
    """(P_0..P_n, Q_0..Q_n): both families iterated over one list of step terms."""
    return tuple(tuple(values) for values in
                 _families(scheme, perturbation, ("first", "second"), 0, n, None))


def gen_associated(scheme, j, n, kind="first"):
    """Associated sequence of order j+1: all coefficient indices shifted by j+1.

    kind "first" gives the G-family (G_0 = 1) used by the structural
    correction terms; kind "second" the H-family (H_0 = 0, H_1 = 1) whose
    ratio H_m/G_m is the tail convergent.
    """
    if j < 0:
        raise ValueError("associated order shift j must be >= 0")
    return tuple(_families(scheme, None, (kind,), j + 1, n, None)[0])


def eval_recurrence_at(scheme, perturbation, kind, n, z):
    """u_n(z) by forward recurrence on scalars, never forming coefficients.

    Exact z (int/Fraction/GaussianRational) gives an exact scalar; a float or
    complex z gives the exact value at the point it stores, rounded once.
    """
    return rounded(_families(scheme, perturbation, (kind,), 0, n, exact_point(z))[0][n], z)


def eval_sequence_at(scheme, perturbation, kind, n, z, shift=0):
    """All of u_0(z)..u_n(z); same conventions as eval_recurrence_at."""
    x = exact_point(z)
    values = _families(scheme, perturbation, (kind,), shift, n, x)[0]
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
