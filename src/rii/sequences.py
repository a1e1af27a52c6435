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
cfrac's convergents; oprl's monic families are `gen_first_kind` over a monic
view of the scheme (`oprl._monic_view`), transfer's step matrices use
`center_term` and `weight_term`, and quadrature's chain of leading
coefficients runs `iterate` on integers.

Every family is one scaled loop: the step list is built once and each
requested kind is iterated over it, fraction-free in the manner of Bareiss.
Step m is scaled by s_m (`cleared_terms`), so that

    v_{i+1} = (s_m a_m) v_i - (s_m s_{m-1} b_m) v_{i-1},   v_i = D_i u_i,

with a_m = rho_m (z - c*_m), b_m = lambda*_m W_m(z) and D_i the product of
the scales of the steps before i.  The first kind starts from v_0 = 1, the
second from (v_0, v_1) = (0, s_shift), so both share one step list and one
list of D_i.  The scaling is exact for any s_m.  When z is None, s_m is the
lcm of the coefficient denominators of a_m and b_m; at an int or Fraction z
with real W_m(z), the lcm of the denominators of the values.  Both are
computed on the integer numerators and denominators of rho_m, c*_m,
lambda*_m and W_m, with no Fraction or Poly arithmetic.  Then every v_i
has integer coefficients (is an int).  At a step with a non-real term s_m = 1
and a_m, b_m are the exact terms (Gaussian Polys, or Fraction and
GaussianRational values at a Gaussian point or a non-real W_m(z)).

When z is None and every step is an integer Poly, the loop runs on Python
ints: each v_i is packed as its value at X = 2^bits, evaluation at 2^bits
being a ring map Z[X] -> Z, so a step is a few big-int operations, not two
convolutions.  Below bits = 128 each step Poly is packed too (`poly.packed`)
and multiplies v in one product.  From 128 bits on (`_packed_step`) v is
long, and a step term sum_j c_j X^j multiplies it as sum_j (v c_j) << j bits
(`_ShiftAdd`): the same int, but each c_j is a digit or two wide, where the
packed term spans bits times its degree, and CPython's product makes one
pass over v for every digit of the term.  The packing is exact because bits
bounds every coefficient.  The 1-norm is subadditive and submultiplicative,
so

    ||v_{i+1}||_1 <= ||s_m a_m||_1 ||v_i||_1 + ||s_m s_{m-1} b_m||_1 ||v_{i-1}||_1,

and by induction ||v_i||_1 <= N_i, where N_i follows the same step with
the norms, N_{i+1} = ||s_m a_m||_1 N_i + ||s_m s_{m-1} b_m||_1 N_{i-1}, from
N_0 = 1 (first kind) or (N_0, N_1) = (0, s_shift) (second kind).  Every
coefficient of v_i is at most ||v_i||_1 <= N_i <= N in size, for N the
largest N_i, and bits is the least multiple of 8 with 2^(bits-1) > N.  So
every coefficient lies in [-2^(bits-1), 2^(bits-1)), its signed base-2^bits
digits are unique, and `poly.unpacked` reads v_i back exactly; u_i = v_i / D_i
is reduced by one gcd.  Only the values a caller reads are unpacked: the
loop takes the indices i it must read back (`_families(..., indices=)`), so
`family_ends` reads u_n alone and each identity in `rii.transfer` and
`rii.cfrac` only the members it reads.  `transfer_residual` unpacks none:
it takes the family unrun (`_families(..., unrun=True)`, a `_Family`), and
packs it at a width bounded by its own expression (see `rii.transfer`),
since an exact packed product needs no bound on its factors' digits, only
on the result's.  A family with a non-real step iterates the Polys
themselves in the same loop.  At an exact z each
u_i = v_i / D_i costs one gcd, and only at those indices.

All of it is exact: the public evaluators take a float or complex z as the
exact rational it stores and round the exact result once on the way out.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import GaussianRational, exact_point, rounded
from .poly import Poly, norm1, packed, unpacked
from .schemes import Perturbation


def center_term(scheme, pert, m, z=None):
    """rho_m (z - c*_m): a Poly when z is None, else its value at an exact z.

    rho_m and c*_m are rationals, so the Poly is built from their integer
    parts, without Fraction arithmetic.
    """
    rho = scheme.rho(m)
    c = pert.center(scheme, m)
    if z is None:
        p = rho.numerator
        return Poly.from_integers((-p * c.numerator, p * c.denominator),
                                  rho.denominator * c.denominator)
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

    When z is None and W_k is real, s is the lcm of the denominators of a
    and b, and s a, s b are Polys with integer coefficients, built from the
    integer numerators of rho_m, c*_m, lambda*_k and W_k.  At an int or
    Fraction z with real W_k(z) the three are ints: a and b are reduced and
    s is the lcm of their denominators.  Everywhere else s = 1 and a, b are
    the exact terms: Polys when z is None, else Fraction or GaussianRational
    values.
    """
    weight = None if k is None else scheme.weight_poly(k)
    real_weight = weight is None or weight.denominator is not None
    if not (real_weight and (z is None or isinstance(z, (int, Fraction)))):
        # a non-real W_k or a Gaussian z: the exact terms, unscaled
        b = 0 if k is None else weight_term(scheme, pert, k, z)
        return 1, center_term(scheme, pert, m, z), b
    rn, rd = scheme.rho(m).as_integer_ratio()
    cn, cd = pert.center(scheme, m).as_integer_ratio()
    ln, ld = (0, 1) if k is None else pert.coefficient(scheme, k).as_integer_ratio()
    if z is None:
        a, ad = [-rn * cn, rn * cd], rd * cd
        b, bd = ([], 1) if k is None else (
            [ln * w for w in weight.numerators], ld * weight.denominator)
        s = math.lcm(ad // math.gcd(ad, *a), bd // math.gcd(bd, *b))
        return (s, Poly.from_integers([x * s // ad for x in a], 1),
                Poly.from_integers([y * s // bd for y in b], 1))
    p, q = z.as_integer_ratio()
    an = rn * (p * cd - cn * q)
    ad = rd * q * cd
    g = math.gcd(an, ad)
    an, ad = an // g, ad // g
    if k is None:
        return clear(an, ad, 0, 1)
    wn, wd = weight.ratio_at(z)
    bn, bd = ln * wn, ld * wd
    g = math.gcd(bn, bd)
    return clear(an, ad, bn // g, bd // g)


def clear(an, ad, bn, bd):
    """(s, s a, s b) for a = an/ad and b = bn/bd in lowest terms (ad, bd > 0):
    s = lcm(ad, bd), so the three are ints."""
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


def _families(scheme, pert, kinds, shift, n, z, indices=None, unrun=False):
    """u_0..u_n of each kind in kinds, iterated over one list of scaled steps:
    Polys when z is None, else values at an exact z (see the module
    docstring).  Each kind is a list of n + 1 slots in which only the u_i at
    indices (all when None) are read back; the other slots hold None.  With
    unrun, the `_Family` itself comes back, its steps built and not yet
    iterated, for a caller that packs it at a width of its own."""
    family = _Family(scheme, pert, kinds, shift, n, z, indices)
    return family if unrun else family.values()


class _Family:
    """One list of scaled steps, s_m a_m and s_m s_{m-1} b_m by m, with D_0..D_n
    and the start value of each kind (see the module docstring).

    `values` iterates it as `_families` returns it; `integer` tells whether
    every step is an integer Poly, and then `norms` gives the bounds N_i and
    `packed(bits)` the v_i packed at X = 2^bits, never unpacked.
    """

    __slots__ = ("kinds", "shift", "n", "z", "indices", "a", "b", "dens", "starts",
                 "integer")

    def __init__(self, scheme, pert, kinds, shift, n, z, indices):
        pert = pert or Perturbation.none()
        a, b, dens, prev = {}, {}, [1], 1       # s_m a_m, s_m s_{m-1} b_m, D_i, s_{m-1}
        for m in range(shift, shift + n):
            # iterate skips b at the first-kind step 0, so it is not queried here
            s, a[m], sb = cleared_terms(scheme, pert, m, m if m > shift else None, z)
            b[m] = sb if prev == 1 else sb * prev
            dens.append(dens[-1] * s)
            prev = s
        self.kinds, self.shift, self.n, self.z = kinds, shift, n, z
        self.indices = range(n + 1) if indices is None else indices
        self.a, self.b, self.dens = a, b, dens
        self.starts = [dens[1] if kind == "second" and n > 0 else 1 for kind in kinds]
        self.integer = z is None and all(p.denominator == 1
                                         for p in (*a.values(), *b.values()))

    def _rows(self, a, b, starts, zero, value):
        """value(v_i, i) at each read index of each kind, iterated over the step
        terms a and b from starts; None at the other slots."""
        out = []
        for kind, start in zip(self.kinds, starts):
            values = iterate(a.__getitem__, b.__getitem__, kind, self.n, self.shift,
                             start, zero)
            row = [None] * (self.n + 1)
            for i in self.indices:
                row[i] = value(values[i], i)
            out.append(row)
        return out

    def values(self):
        """u_i = v_i / D_i at the read indices: values at z, else Polys, unpacked
        at the family's own packing width when every step is an integer Poly."""
        dens = self.dens
        if self.z is not None:
            return self._rows(self.a, self.b, self.starts, 0, lambda v, i: (
                Fraction(v, dens[i]) if isinstance(v, int) else v / dens[i]))
        if self.integer:
            bits = _width(max(max(row) for row in self.norms()))
            return self.packed(bits, lambda v, i: unpacked(v, bits, i + 1, dens[i]))
        return self._rows(self.a, self.b, [Poly.const(start) for start in self.starts],
                          Poly.zero(),
                          lambda v, i: v if dens[i] == 1 else v * Fraction(1, dens[i]))

    def norms(self):
        """N_0..N_n of each kind, N_i >= ||v_i||_1 (see the module docstring)."""
        # iterate subtracts its b term, so the norms of the b terms enter negated
        na = {m: norm1(p) for m, p in self.a.items()}
        nb = {m: -norm1(p) for m, p in self.b.items()}
        return [iterate(na.__getitem__, nb.__getitem__, kind, self.n, self.shift, start, 0)
                for kind, start in zip(self.kinds, self.starts)]

    def packed(self, bits, value=lambda v, i: v):
        """value(v_i, i) of each v_i at the read indices, v_i packed at X = 2^bits:
        exact whatever bits is, evaluation at 2^bits being a ring map."""
        return self._rows({m: _packed_step(p, bits) for m, p in self.a.items()},
                          {m: _packed_step(p, bits) for m, p in self.b.items()},
                          self.starts, 0, value)


def _width(bound):
    """The least multiple of 8 with 2^(bits-1) > bound: then signed base-2^bits
    digits hold every integer coefficient of size at most bound."""
    return (bound.bit_length() // 8 + 1) * 8


# the packing width from which `iterate` multiplies by shift-and-add; below
# it, v is a few digits long and one product by the packed step costs less
# than a call of `_ShiftAdd.__mul__` (on the worked example, bits is about
# 2.5 n, and the two cross near n = 45)
_SHIFT_ADD_BITS = 128


def _packed_step(poly, bits):
    """The integer step Poly as `iterate` multiplies packed ints by it: its
    value at X = 2^bits below _SHIFT_ADD_BITS, else a `_ShiftAdd`."""
    return _ShiftAdd(poly, bits) if bits >= _SHIFT_ADD_BITS else packed(poly, bits)


class _ShiftAdd:
    """An integer step Poly sum_j c_j X^j acting on packed ints: step * v is
    sum_j (v c_j) << j bits, v times its value at X = 2^bits."""

    __slots__ = ("terms",)

    def __init__(self, poly, bits):
        self.terms = [(c, j * bits) for j, c in enumerate(poly.numerators) if c]

    def __mul__(self, v):
        out = 0
        for c, shift in self.terms:
            out += (v * c) << shift
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


def family_ends(scheme, perturbation, n, kinds=("first", "second")):
    """u_n of each kind in kinds, a tuple of Polys: (P_n, Q_n) by default.

    The families run over one list of step terms, as in gen_both_kinds, and
    only u_n becomes a Poly.
    """
    return tuple(values[n] for values in
                 _families(scheme, perturbation, kinds, 0, n, None, (n,)))


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
    u_n = _families(scheme, perturbation, (kind,), 0, n, exact_point(z), (n,))[0][n]
    return rounded(u_n, z)


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
    "family_ends",
    "gen_associated",
    "eval_recurrence_at",
    "eval_sequence_at",
    "example_closed_form",
]
