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
So step m is the unit: `cleared_terms` gives it whole, (s_m, s_m a_m,
s_m b_m) with a_m = rho_m (z - c*_m) and b_m = lambda*_m W_m(z) (b_0 = 0:
W_0 is never read), and is the only source of step terms for the families
and for cfrac's convergents; oprl's monic families are `gen_first_kind`
over a monic view of the scheme (`oprl._monic_view`), transfer's step
matrices use `center_term` and `weight_term`, and quadrature's chain of
leading coefficients runs `iterate` on integers.

Each scheme owns one table of exact step data (`_Table`): the integer
ratios of rho_m, c_m and lambda_m by m, and the unperturbed cleared steps
at z = None by m.  It is a private attribute of the immutable scheme, so
it lives and dies with it, and only this module fills it: one entry at a
time, the first time it is read.  A failed read stores nothing, so a
tabulated scheme raises SchemeIndexError at the same index however warm
its table is.  A perturbation changes only its own levels, so
`_step_terms` builds afresh just the steps at m = k and m = k' and takes
every other one from the table: the rules on one scheme, the plain and
perturbed families of one transfer check, and the families and continued
fractions of one scheme share their unperturbed steps.  `cleared_terms`
and quadrature's lead chain and pencil read rho_m, c*_m and lambda*_m
through the table too (`step_ratios`).

Every family is one scaled loop: the step list is built once and each
requested kind is iterated over it, fraction-free in the manner of Bareiss.
Step m is scaled by s_m, so that

    v_{i+1} = (s_m a_m) v_i - (s_m s_{m-1} b_m) v_{i-1},   v_i = D_i u_i,

with D_i the product of the scales of the steps before i.  The first kind
starts from v_0 = 1, the second from (v_0, v_1) = (0, s_shift), so both
share one step list and one list of D_i; neither reads b at step shift.
The scaling is exact for any s_m.  When z is None, s_m is the lcm of the
coefficient denominators of a_m and b_m; at an int or Fraction z with real
W_m(z), the lcm of the denominators of the values.  Both are computed on
the integer numerators and denominators of rho_m, c*_m, lambda*_m and W_m,
with no Fraction or Poly arithmetic.  Then every v_i has integer
coefficients (is an int), and at z = None s_m a_m and s_m b_m are integer
Polys.  At a step with a non-real term s_m = 1 and a_m, b_m are the exact
terms (Gaussian Polys, or Fraction and GaussianRational values at a
Gaussian point or a non-real W_m(z)).

When z is None and every step is real, the loop runs on Python ints: each
v_i is packed as its value at X = 2^bits, evaluation at 2^bits being a
ring map Z[X] -> Z, so a step is a few big-int operations, not two
convolutions.  Below bits = 128 each step is packed too and multiplies v
in one product.  From 128 bits on (`_packed_step`) v is
long, and a step term sum_j c_j X^j multiplies it as sum_j (v c_j) << j bits
(`_ShiftAdd`): the same int, but each c_j is a digit or two wide, where the
packed term spans bits times its degree, and CPython's product makes one
pass over v for every digit of the term.

This module makes every packing decision, for the families and for exact
expressions in their members (`_decided`; `rii.transfer` decides the
transfer theorem so).  A member u_i = v_i / D_i, a step term and any
integer polynomial over an integer is a quotient A/d, and on quotients

    A/d * A'/d' = A A' / (d d'),   A/d +- A'/d' = (A (L/d) +- A' (L/d')) / L,

with L = lcm(d, d'): an expression in them is a quotient R/d, R made from
the numerators by sums, differences, products and integer multiples alone
(`_Packed`).  So R(2^bits) follows exactly from the numerators' values at
2^bits, whatever bits is, and the members are never unpacked.  The same
expression run on 1-norm bounds (`_Bound`) bounds every R, since

    ||A +- A'||_1 <= ||A||_1 + ||A'||_1,   ||A A'||_1 <= ||A||_1 ||A'||_1,
    ||k A||_1 = |k| ||A||_1:

a difference or a sum adds the bounds and a product multiplies them, and by
induction ||R||_1 <= N for the bound N it computes.  The family loop is
such an expression on integer polynomials, and on bounds it is

    N_{i+1} = ||s_m a_m||_1 N_i + ||s_m s_{m-1} b_m||_1 N_{i-1}

from N_0 = 1 (first kind) or (N_0, N_1) = (0, s_shift) (second kind), so a
member v_i / D_i is bounded by N_i / D_i (`_Family.members`).  bits is the
least multiple of 8 with 2^(bits-1) > N, N the largest bound of the values
read (`_width`).  Every coefficient of each R is at most ||R||_1 <= N in
size, so it lies in [-2^(bits-1), 2^(bits-1)), its signed base-2^bits
digits are unique, and `poly.unpacked` reads R back exactly, its length
taken from the bit length of R(2^bits); R/d reduced by one gcd is the
canonical Poly.

Only the values a caller reads are unpacked: a `_Family` takes the indices
it reads back, so `family_ends` reads u_n alone, each identity in
`rii.transfer` and `rii.cfrac` only its members, and `transfer_residual`
only its residual entries.  A family with a non-real step, or at an exact
z, iterates the terms themselves in the same loop, and each u_i = v_i / D_i
read costs one gcd.

All of it is exact: the public evaluators take a float or complex z as the
exact rational it stores and round the exact result once on the way out.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import GaussianRational, exact_point, rounded
from .poly import Poly, norm1, packed, unpacked
from .schemes import Perturbation

_UNPERTURBED = Perturbation.none()


class _Table:
    """One scheme's exact step data (see the module docstring): the integer
    ratios of rho_m, c_m and lambda_m by m (lambda_0, never read, is 0),
    and the unperturbed `cleared_terms` at z = None by m."""

    __slots__ = ("rho", "c", "lam", "terms")

    def __init__(self):
        self.rho, self.c, self.lam, self.terms = {}, {}, {0: (0, 1)}, {}


def _table(scheme):
    """A new `_Table` for the scheme, which has none yet: callers read
    `scheme._table or _table(scheme)`."""
    table = scheme._table = _Table()
    return table


def _read(cache, coefficient, m):
    """coefficient(m) as (numerator, denominator > 0), put in cache."""
    ratio = cache[m] = coefficient(m).as_integer_ratio()
    return ratio


def _shifted(ratio, mu):
    """The ratio (numerator, denominator > 0) of ratio + mu: c_k + mu."""
    (p, q), (a, b) = ratio, mu.as_integer_ratio()
    p, q = p * b + a * q, q * b
    g = math.gcd(p, q)
    return p // g, q // g


def _scaled(ratio, nu):
    """The ratio (numerator, denominator > 0) of ratio * nu: nu lambda_k'."""
    (p, q), (a, b) = ratio, nu.as_integer_ratio()
    p, q = p * a, q * b
    g = math.gcd(p, q)
    return p // g, q // g


def step_ratios(scheme, pert, n, names=("rho", "c", "lam")):
    """The integer ratios (numerator, denominator > 0) of rho_m, c*_m and
    lambda*_m for m < n, a list for each name in names (in that order);
    lambda*_0 is (0, 1).

    They come from the scheme's table.  Any that it lacks are read index by
    index, each name in turn, so a tabulated scheme raises SchemeIndexError
    for the first coefficient that one recurrence step after another reads.
    """
    table = scheme._table or _table(scheme)
    reads = [(getattr(table, name), getattr(scheme, name)) for name in names]
    try:
        rows = [[cache[m] for m in range(n)] for cache, _ in reads]
    except KeyError:
        for m in range(n):
            for cache, coefficient in reads:
                if m not in cache:
                    _read(cache, coefficient, m)
        rows = [[cache[m] for m in range(n)] for cache, _ in reads]
    for name, row in zip(names, rows):
        if name == "c" and pert.k is not None and pert.k < n:
            row[pert.k] = _shifted(row[pert.k], pert.mu)
        elif name == "lam" and pert.kp is not None and pert.kp < n:
            row[pert.kp] = _scaled(row[pert.kp], pert.nu)
    return rows


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


def cleared_terms(scheme, pert, m, z):
    """Step m as (s, s a, s b) for a = rho_m (z - c*_m) and b = lambda*_m W_m(z)
    (b = 0 at m = 0, where W_0 is never read): the only source of step terms.

    When z is None and W_m is real, s is the lcm of the denominators of a
    and b, and s a, s b are integer Polys, built from the integer numerators
    of rho_m, c*_m, lambda*_m and W_m.  At an int or Fraction z with real
    W_m(z) the three are ints: a and b are reduced and s is the lcm of their
    denominators.  Everywhere else s = 1 and a, b are the exact terms: Polys
    when z is None, else Fraction or GaussianRational values.
    """
    weight = scheme.weight_poly(m) if m else None
    real_weight = weight is None or weight.denominator is not None
    if not (real_weight and (z is None or isinstance(z, (int, Fraction)))):
        # a non-real W_m or a Gaussian z: the exact terms, unscaled
        b = weight_term(scheme, pert, m, z) if m else 0
        return 1, center_term(scheme, pert, m, z), b
    table = scheme._table or _table(scheme)
    # a ratio is a nonempty tuple: `or` reads it only when the table lacks it
    rn, rd = table.rho.get(m) or _read(table.rho, scheme.rho, m)
    cn, cd = table.c.get(m) or _read(table.c, scheme.c, m)
    if m == pert.k:
        cn, cd = _shifted((cn, cd), pert.mu)
    ln, ld = table.lam.get(m) or _read(table.lam, scheme.lam, m)
    if m == pert.kp:
        ln, ld = _scaled((ln, ld), pert.nu)
    if z is None:
        a, ad = [-rn * cn, rn * cd], rd * cd
        b, bd = ([ln * w for w in weight.numerators], ld * weight.denominator) if m else ([], 1)
        s = math.lcm(ad // math.gcd(ad, *a), bd // math.gcd(bd, *b))
        return (s, Poly.from_integers([x * s // ad for x in a], 1),
                Poly.from_integers([y * s // bd for y in b], 1))
    p, q = z.as_integer_ratio()
    an = rn * (p * cd - cn * q)
    ad = rd * q * cd
    g = math.gcd(an, ad)
    an, ad = an // g, ad // g
    if not m:
        return clear(an, ad, 0, 1)
    wn, wd = weight.ratio_at(z)
    bn, bd = ln * wn, ld * wd
    g = math.gcd(bn, bd)
    return clear(an, ad, bn // g, bd // g)


def _step_terms(scheme, pert, m):
    """cleared_terms(scheme, pert, m, None): built afresh at a perturbed
    level (m = k or m = k'), else the unperturbed step from the scheme's
    table, which it fills on first use."""
    if m == pert.k or m == pert.kp:
        return cleared_terms(scheme, pert, m, None)
    terms = (scheme._table or _table(scheme)).terms
    step = terms.get(m)
    if step is None:
        step = terms[m] = cleared_terms(scheme, _UNPERTURBED, m, None)
    return step


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


class _Family:
    """The steps (s_m, s_m a_m, s_m b_m) of levels shift..shift+n-1 with
    D_0..D_n, read back at the indices given (all when None); see the module
    docstring.  Each reader runs the scaled loop, b_m times s_{m-1}.

    `values` gives each kind's u_0..u_n, None at the indices not read.
    `integer` tells whether every step is real at z = None, each term an
    integer Poly, and then `members` gives the read members as quotients of
    packed integers or of bounds.
    """

    __slots__ = ("kinds", "shift", "n", "z", "indices", "a", "b", "prev", "dens", "integer")

    def __init__(self, scheme, pert, kinds, shift, n, z=None, indices=None):
        if n < 0:       # as `iterate` says it; _rows reads dens[1] before iterating
            raise ValueError("n must be >= 0, got %d" % n)
        pert = pert or _UNPERTURBED
        # each reader scales b_m by s_{m-1} in its own form: scaling the
        # Polys here cost a 12-step family_ends 18 %
        a, b, prev, dens, s = {}, {}, {}, [1], 1     # s_m a_m, s_m b_m, s_{m-1}, D_i
        for m in range(shift, shift + n):
            # iterate never reads b at step shift, whichever the kind
            prev[m] = s
            s, a[m], b[m] = (_step_terms(scheme, pert, m) if z is None else
                             cleared_terms(scheme, pert, m, z))
            dens.append(dens[-1] * s)
        # a non-real step is unscaled: its terms are not integer Polys (a zero
        # lambda*_m W_m, whatever W_m, has denominator 1, so a is read too)
        self.integer = z is None and all(t.denominator == 1 for t in (*a.values(), *b.values()))
        self.kinds, self.shift, self.n, self.z = kinds, shift, n, z
        self.indices = range(n + 1) if indices is None else indices
        self.a, self.b, self.prev, self.dens = a, b, prev, dens

    def _rows(self, a, b, one, zero, value):
        """value(v_i, i) at each read index of each kind, None at the others:
        v iterated over the scaled step terms a and b from one(start) and
        zero, the start being v_0 = 1 (first kind) or v_1 = D_1 (second kind)."""
        rows = []
        for kind in self.kinds:
            start = self.dens[1] if kind == "second" and self.n else 1
            v = iterate(a.__getitem__, b.__getitem__, kind, self.n, self.shift, one(start), zero)
            row = [None] * (self.n + 1)
            for i in self.indices:
                row[i] = value(v[i], i)
            rows.append(row)
        return rows

    def values(self):
        """u_i = v_i / D_i at the read indices: values at z, else Polys, packed
        when every step is real."""
        dens = self.dens
        if self.integer:        # raw ints: a quotient per member cost family_ends 3-5 %
            bits = _width(max(row[i] for row in self.members(None, lambda v, i: v)
                              for i in self.indices))
            return self.members(bits, lambda v, i: unpacked(v, bits, i + 1, dens[i]))
        one, zero = (int, 0) if self.z is not None else (Poly.const, Poly.zero())
        b = {m: t * self.prev[m] for m, t in self.b.items()}
        return self._rows(self.a, b, one, zero, lambda v, i: (
            Fraction(v, dens[i]) if isinstance(v, int) else
            v if dens[i] == 1 else v * Fraction(1, dens[i])))

    def members(self, bits=None, read=None):
        """Each kind's read members u_i = v_i / D_i as quotients: `_Bound`s
        N_i / D_i when bits is None, else `_Packed`s v_i(2^bits) / D_i; or
        read(N_i or v_i(2^bits), i) of each when read is given."""
        prev = self.prev
        if bits is None:
            # the loop on ints: iterate subtracts its b term, so the b bounds
            # enter negated (one `_Bound` per step cost a rule ladder 2-3 %)
            cls, a = _Bound, {m: norm1(t) for m, t in self.a.items()}
            b = {m: -norm1(t) * prev[m] for m, t in self.b.items()}
        else:
            # s_{m-1} enters the coefficients, which a `_ShiftAdd` keeps apart
            cls, a = _Packed, {m: _packed_step(t.numerators, bits) for m, t in self.a.items()}
            b = {m: _packed_step([y * prev[m] for y in t.numerators], bits)
                 for m, t in self.b.items()}
        dens = self.dens
        return self._rows(a, b, int, 0, read or (lambda v, i: cls(v, dens[i])))


def _decided(expression):
    """The Polys R/d of an exact expression in quotients: expression(bits)
    gives rows of them, as `_Bound`s when bits is None, else as `_Packed`s at
    X = 2^bits; bits is the `_width` of the bounds (see the module
    docstring).  A zero R, a correct build's residual, unpacks nothing."""
    bits = _width(max(x.num for row in expression(None) for x in row))
    return [[unpacked(x.num, bits, x.num.bit_length() // bits + 2, x.den) if x.num
             else Poly.zero() for x in row]
            for row in expression(bits)]


def _quotient(poly, bits=None):
    """A Poly with integer numerators over its denominator as a quotient:
    its `_Bound` when bits is None, else its `_Packed` at X = 2^bits."""
    if bits is None:
        return _Bound(norm1(poly), poly.denominator)
    return _Packed(packed(poly.numerators, bits), poly.denominator)


class _Packed:
    """num / den: an integer polynomial packed into the int num, its value at
    X = 2^bits, over an int den > 0, with the ring operations of such quotients."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num, self.den = num, den

    def __mul__(self, other):
        return type(self)(self.num * other.num, self.den * other.den)

    def __neg__(self):
        return type(self)(-self.num, self.den)

    def __add__(self, other):
        if self.den == other.den:
            return type(self)(self.num + other.num, self.den)
        den = math.lcm(self.den, other.den)
        return type(self)(self.num * (den // self.den) + other.num * (den // other.den), den)

    def __sub__(self, other):
        return self + -other


class _Bound(_Packed):
    """A `_Packed` that carries a bound on the 1-norm of its numerator in num:
    the same operations bound the 1-norm of their result, as a difference
    adds the bounds."""

    __slots__ = ()

    def __neg__(self):
        return self


def _width(bound):
    """The least multiple of 8 with 2^(bits-1) > bound: then signed base-2^bits
    digits hold every integer coefficient of size at most bound."""
    return (bound.bit_length() // 8 + 1) * 8


# the packing width from which `iterate` multiplies by shift-and-add; below
# it, v is a few digits long and one product by the packed step costs less
# than a call of `_ShiftAdd.__mul__` (on the worked example, bits is about
# 2.5 n, and the two cross near n = 45)
_SHIFT_ADD_BITS = 128


def _packed_step(nums, bits):
    """The step with integer coefficients nums (ascending) as `iterate`
    multiplies packed ints by it: its value at X = 2^bits below
    _SHIFT_ADD_BITS, else a `_ShiftAdd`."""
    return _ShiftAdd(nums, bits) if bits >= _SHIFT_ADD_BITS else packed(nums, bits)


class _ShiftAdd:
    """A step with integer coefficients sum_j c_j X^j acting on packed ints:
    step * v is sum_j (v c_j) << j bits, v times its value at X = 2^bits."""

    __slots__ = ("terms",)

    def __init__(self, nums, bits):
        self.terms = [(c, j * bits) for j, c in enumerate(nums) if c]

    def __mul__(self, v):
        out = 0
        for c, shift in self.terms:
            out += (v * c) << shift
        return out


def gen_first_kind(scheme, perturbation, n):
    """P_0..P_n of the (optionally perturbed) recurrence."""
    return tuple(_Family(scheme, perturbation, ("first",), 0, n).values()[0])


def gen_second_kind(scheme, perturbation, n):
    """Q_0..Q_n (Q_0 = 0, Q_1 = 1); deg Q_n = n - 1.

    The recurrence's step 0 is never executed for this family, so a
    co-recursion at k = 0 leaves every Q_n unchanged.
    """
    return tuple(_Family(scheme, perturbation, ("second",), 0, n).values()[0])


def gen_both_kinds(scheme, perturbation, n):
    """(P_0..P_n, Q_0..Q_n): both families iterated over one list of step terms."""
    return tuple(map(tuple, _Family(scheme, perturbation, ("first", "second"), 0, n).values()))


def family_ends(scheme, perturbation, n, kinds=("first", "second")):
    """u_n of each kind in kinds, a tuple of Polys: (P_n, Q_n) by default.

    The families run over one list of step terms, as in gen_both_kinds, and
    only u_n becomes a Poly.
    """
    return tuple(row[n] for row in _Family(scheme, perturbation, kinds, 0, n, None, (n,)).values())


def gen_associated(scheme, j, n, kind="first"):
    """Associated sequence of order j+1: all coefficient indices shifted by j+1.

    kind "first" gives the G-family (G_0 = 1) used by the structural
    correction terms; kind "second" the H-family (H_0 = 0, H_1 = 1) whose
    ratio H_m/G_m is the tail convergent.
    """
    if j < 0:
        raise ValueError("associated order shift j must be >= 0")
    return tuple(_Family(scheme, None, (kind,), j + 1, n).values()[0])


def eval_recurrence_at(scheme, perturbation, kind, n, z):
    """u_n(z) by forward recurrence on scalars, never forming coefficients.

    Exact z (int/Fraction/GaussianRational) gives an exact scalar; a float or
    complex z gives the exact value at the point it stores, rounded once.
    """
    u_n = _Family(scheme, perturbation, (kind,), 0, n, exact_point(z), (n,)).values()[0][n]
    return rounded(u_n, z)


def eval_sequence_at(scheme, perturbation, kind, n, z, shift=0):
    """All of u_0(z)..u_n(z), the coefficient indices shifted by shift >= 0;
    same conventions as eval_recurrence_at."""
    if shift < 0:
        raise ValueError("shift must be >= 0, got %d" % shift)
    x = exact_point(z)
    values = _Family(scheme, perturbation, (kind,), shift, n, x).values()[0]
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
