"""Step matrices, their products, and the perturbation transfer matrices.

One recurrence step advances the column vector (u_{n+1}, u_n)^T by

    T_n = [[rho_n (z - c_n), -lambda_n W_n(z)], [1, 0]],   n >= 1,

and the index-0 "step" is the initial-condition matrix

    T_0 = [[rho_0 (z - c_0), -1], [1, 0]],   det T_0 = 1,

whose columns seed both families at once: the product

    F_{n+1} = T_n T_{n-1} ... T_0 = [[P_{n+1}, -Q_{n+1}], [P_n, -Q_n]]

carries the first kind in its first column and (minus) the second kind in its
second, and det F_{n+1} = prod_{j=1..n} lambda_j* W_j(z).

The transfer matrix S of a perturbation with top level m = max(k, kp) is

    S = F_{m+1}(z; mu, nu)^T  @  adj(F_{m+1}(z))^T,

a polynomial matrix (no division: adj supplies det * inverse).  It satisfies

    K_m(z) * F_{n+1}(z; mu, nu)^T = S(z) @ F_{n+1}(z)^T   for all n >= m,

with K_m = det F_{m+1} = prod_{j=1..m} lambda_j W_j: the perturbed family is a
left matrix multiple of the unperturbed one from level m onward.

Every identity here reads what it needs off one plain and one perturbed
(P, Q) family: Polys, or values at the exact point for `structural_residual`,
and only the members it reads are unpacked (`rii.sequences._families` with
its indices).  The values perturbed only below a level
L are the first L + 1 values of the perturbed family itself (see
`rii.sequences`), so no family is rebuilt for part of a perturbation.
`transfer_residual` is the one check of the transfer theorem: S written
entry by entry through an explicit level-m step must equal the product form,
and the matrix identity above must hold, both as exact polynomial matrices.
`structural_residual` checks the scalar structural identities at a point.
`f_matrix` reads F_{n+1} off the two families instead of multiplying n + 1
step matrices; `step_matrix` keeps the product form as a reference.

`transfer_residual` decides both identities on packed integers whenever
every step of both families is an integer Poly, that is unless some W_m is
not real (then it takes the Poly form above).  Each value it reads is an
integer polynomial over an integer: u_i = v_i / D_i of the plain family,
u*_i = v*_i / E_i of the perturbed one (`rii.sequences`), the step terms
rho_m (z - c*_m) and lambda*_m W_m and the factors lambda_j W_j of K_m, each
its integer numerators over its denominator.  Both residuals are sums and
products of these, and on such quotients

    A/d * A'/d' = A A' / (d d'),   A/d +- A'/d' = (A (L/d) +- A' (L/d')) / L,

with L = lcm(d, d'), so each of the eight entries is R/d with R made from
the numerators by sums, differences, products and integer multiples alone
(`_Packed`).  Evaluation at X = 2^B is a ring map Z[X] -> Z, so R(2^B)
follows from the numerators' values at 2^B: the families come packed at
width B and are never unpacked (`_Family.packed`), and the step terms and
K_m's factors are packed from their numerators.  The same expression run on
1-norm bounds (`_Bound`) bounds every R: a family value's bound is its N_i
(`_Family.norms`), a step's the 1-norm of its numerators, and since

    ||A +- A'||_1 <= ||A||_1 + ||A'||_1,   ||A A'||_1 <= ||A||_1 ||A'||_1,
    ||k A||_1 = |k| ||A||_1,

a difference or a sum adds the bounds and a product multiplies them, with the
same denominators.  By induction over the expression ||R||_1 <= N for the
bound N it computes.  B is the least multiple of 8 with 2^(B-1) above the N
of all eight entries, so every coefficient of every R lies in
[-2^(B-1), 2^(B-1)), its signed base-2^B digits are unique, and
`poly.unpacked` reads R back exactly, its length taken from the bit length
of R(2^B).  R/d reduced by one gcd is the canonical Poly, the entry the Poly
form gives; on a correct build all eight are 0.
"""

from __future__ import annotations

import math

from .exact import exact_point, rounded
from .polymat import PolyMatrix2
from .poly import Poly, norm1, packed, unpacked
from .schemes import Perturbation
from .sequences import _families, _width, center_term, weight_term

def step_matrix(scheme, perturbation, n):
    """T_n with the perturbed center/coefficient substituted at n = k / kp.

    n = 0 returns the initial-condition matrix [[rho_0(z-c_0*), -1], [1, 0]]
    (det 1); lambda_0 is never queried.
    """
    pert = perturbation or Perturbation.none()
    top_right = -Poly.one() if n == 0 else -weight_term(scheme, pert, n)
    return PolyMatrix2(center_term(scheme, pert, n), top_right, Poly.one(), Poly.zero())


def _pair(scheme, perturbation, n, indices, unrun=False):
    """The (P, Q) family through index n, read back only at its indices >= 0
    (`rii.sequences._families`; unrun, its `_Family`)."""
    return _families(scheme, perturbation, ("first", "second"), 0, n, None,
                     [i for i in indices if i >= 0], unrun)


def _read(scheme, perturbation, n, plain, perturbed, unrun=False):
    """The plain and the perturbed (P, Q) families through index n, each read
    back only at its own indices."""
    return (_pair(scheme, None, n, plain, unrun),
            _pair(scheme, perturbation, n, perturbed, unrun))


def f_matrix(scheme, perturbation, n):
    """F_{n+1} = T_n ... T_0 = [[P_{n+1}, -Q_{n+1}], [P_n, -Q_n]], read off the
    two families rather than multiplied out."""
    if n < 0:
        raise ValueError("n must be >= 0, got %d" % n)
    p, q = _pair(scheme, perturbation, n + 1, (n, n + 1))
    return PolyMatrix2(p[n + 1], -q[n + 1], p[n], -q[n])


def lambda_weight_product(scheme, perturbation, upto):
    """prod_{j=1..upto} lambda_j* W_j(z) as a Poly; empty product (upto < 1) is 1."""
    pert = perturbation or Perturbation.none()
    out = Poly.one()
    for j in range(1, upto + 1):
        out = out * weight_term(scheme, pert, j)
    return out


def perturbation_transfer(scheme, perturbation):
    """The transfer matrix S of the perturbation, at level m = max(k, kp).

    The product F_{m+1}(mu,nu)^T @ adj(F_{m+1})^T, entry by entry
    (`_product_form`), which is exact for either order of k and kp and for
    the same-level case.  The empty perturbation (None) yields the identity
    matrix.
    """
    m = (perturbation or Perturbation.none()).max_level()
    if m < 0:
        return PolyMatrix2.identity()
    return PolyMatrix2(*_product_form(
        *_read(scheme, perturbation, m + 1, (m, m + 1), (m, m + 1)), m))


def _product_form(plain, perturbed, m):
    """S = F*_{m+1}^T adj(F_{m+1})^T row by row, from the plain and perturbed
    (P, Q) families through index m + 1, in the ring of their values."""
    (p, q), (ps, qs) = plain, perturbed
    return (ps[m] * q[m + 1] - ps[m + 1] * q[m], ps[m] * p[m + 1] - ps[m + 1] * p[m],
            qs[m + 1] * q[m] - qs[m] * q[m + 1], qs[m + 1] * p[m] - qs[m] * p[m + 1])


def transfer_entries(scheme, perturbation):
    """S assembled from the polynomial sequences per the structural theorems.

    With m = max(k, kp), writes the top entries through one perturbed
    recurrence step applied to the sequence values perturbed below m:

        S11 = -P*_{m+1} Q_m + P°_m Q_{m+1}      S12 = -P*_{m+1} P_m + P°_m P_{m+1}
        S21 =  Q*_{m+1} Q_m - Q°_m Q_{m+1}      S22 =  Q*_{m+1} P_m - Q°_m P_{m+1}

    where ° marks the values perturbed only below m (the perturbed family's
    values through index m) and * the value after the explicit level-m step.
    Cross-checks perturbation_transfer entry by entry.
    """
    pert = perturbation or Perturbation.none()
    m = pert.max_level()
    if m < 0:
        return PolyMatrix2.identity()
    plain, perturbed = _read(scheme, pert, m + 1, (m, m + 1), (m - 1, m))
    return PolyMatrix2(*_entry_form(plain, perturbed, _steps(scheme, pert, m), Poly.one(), m))


def _steps(scheme, pert, m):
    """The level-m step terms as Polys: rho_m (z - c*_m), then lambda*_m W_m
    for m >= 1.  Step 0 has no lambda term: it multiplies P_{-1} = 0, and Q_1
    is an initial value, untouched by any perturbation."""
    return [center_term(scheme, pert, m)] + ([weight_term(scheme, pert, m)] if m else [])


def _entry_form(plain, perturbed, steps, one, m):
    """transfer_entries row by row, in the ring of the values: of the
    perturbed family it reads only the values through index m, and steps
    are the level-m step terms (`_steps`)."""
    (p, q), (ps, qs) = plain, perturbed
    if m == 0:
        top_p, top_q = steps[0] * ps[0], one
    else:
        a, b = steps
        top_p, top_q = a * ps[m] - b * ps[m - 1], a * qs[m] - b * qs[m - 1]
    return (ps[m] * q[m + 1] - top_p * q[m], ps[m] * p[m + 1] - top_p * p[m],
            top_q * q[m] - qs[m] * q[m + 1], top_q * p[m] - qs[m] * p[m + 1])


def structural_residual(scheme, perturbation, n, z):
    """LHS - RHS of the first- and second-kind structural identities at z.

    LHS is u_{n+1}(z; mu, nu) by direct perturbed recurrence; RHS is the
    unperturbed value plus one correction term per perturbation level L <= n,
    each carrying the first-kind associated factor G^{(L+1)}_{n-L}(z) and the
    sequence values perturbed below L, which are the direct values u_L and
    u_{L-1}.  Both kinds come from one plain and one perturbed family at the
    exact point z stores, and each residual is rounded once: exactly (0, 0)
    for every z (0.0 or 0j at a float or complex z).
    """
    pert = perturbation or Perturbation.none()
    x = exact_point(z)
    factors = {level: _families(scheme, None, ("first",), level + 1, n - level, x,
                                (n - level,))[0][n - level]
               for level in (pert.k, pert.kp) if level is not None and level <= n}
    # each level's correction reads u_L or u_{L-1} of the direct family
    direct_at = {n + 1, *factors, *[level - 1 for level in factors if level]}
    kinds = ("first", "second")
    out = []
    for direct, plain in zip(_families(scheme, pert, kinds, 0, n + 1, x, direct_at),
                             _families(scheme, None, kinds, 0, n + 1, x, (n + 1,))):
        value = plain[n + 1]
        for level, factor in factors.items():
            jump = 0
            if pert.k == level:
                jump -= pert.mu * scheme.rho(level) * direct[level]
            if pert.kp == level:
                w = scheme.weight_at(level, x)
                jump -= (pert.nu - 1) * scheme.lam(level) * w * direct[level - 1]
            value += jump * factor
        out.append(rounded(direct[n + 1] - value, z))
    return tuple(out)


def transfer_residual(scheme, perturbation, n):
    """The transfer theorem as two polynomial matrices that vanish for n >= m:

        transfer_entries - perturbation_transfer,
        K_m F^T_{n+1}(mu,nu) - S F^T_{n+1},

    both read off one plain and one perturbed family through index n + 1 and,
    when every step of both is an integer Poly, decided on their values at
    X = 2^B (see the module docstring); otherwise on Polys.
    """
    pert = perturbation or Perturbation.none()
    m = pert.max_level()
    if n < max(m, 0):
        raise ValueError("transfer identity needs n >= max perturbation level and n >= 0")
    at = (m, m + 1, n, n + 1)
    plain, perturbed = _read(scheme, pert, n + 1, at, (m - 1, *at), True)
    steps = _steps(scheme, pert, m) if m >= 0 else []
    weights = [weight_term(scheme, Perturbation.none(), j) for j in range(1, m + 1)]
    if not (plain.integer and perturbed.integer):
        values = _residuals(plain.values(), perturbed.values(), steps,
                            math.prod(weights, start=Poly.one()), Poly.one(), Poly.zero(), m, n)
        return PolyMatrix2(*values[:4]), PolyMatrix2(*values[4:])

    def residuals(cls, rows, numerators):
        """The eight entries over cls from the families' rows of values and
        numerators(P), the value of a step Poly's numerators."""
        def leaf(poly):
            return cls(numerators(poly), poly.denominator)
        families = [[{i: cls(row[i], family.dens[i]) for i in family.indices}
                     for row in family_rows]
                    for family, family_rows in zip((plain, perturbed), rows)]
        return _residuals(*families, list(map(leaf, steps)),
                          math.prod(map(leaf, weights), start=cls(1, 1)), cls(1, 1), cls(0, 1),
                          m, n)

    bits = _width(max(x.num for x in residuals(
        _Bound, (plain.norms(), perturbed.norms()), norm1)))
    values = [Poly.zero() if not x.num else
              unpacked(x.num, bits, x.num.bit_length() // bits + 2, x.den)
              for x in residuals(_Packed, (plain.packed(bits), perturbed.packed(bits)),
                                 lambda p: packed(Poly.from_integers(p.numerators, 1), bits))]
    return PolyMatrix2(*values[:4]), PolyMatrix2(*values[4:])


def _residuals(plain, perturbed, steps, kappa, one, zero, m, n):
    """The entries of both residuals of `transfer_residual`, row by row, in the
    ring of the values: plain and perturbed (P, Q) families, the level-m step
    terms (`_steps`), K_m, and that ring's one and zero."""
    if m < 0:
        s = entries = (one, zero, zero, one)
    else:
        s = _product_form(plain, perturbed, m)
        entries = _entry_form(plain, perturbed, steps, one, m)
    (p, q), (ps, qs) = plain, perturbed
    f = (p[n + 1], p[n], -q[n + 1], -q[n])                # F_{n+1}^T
    fs = (ps[n + 1], ps[n], -qs[n + 1], -qs[n])           # F*_{n+1}^T
    sf = (s[0] * f[0] + s[1] * f[2], s[0] * f[1] + s[1] * f[3],
          s[2] * f[0] + s[3] * f[2], s[2] * f[1] + s[3] * f[3])
    return ([x - y for x, y in zip(entries, s)]
            + [kappa * x - y for x, y in zip(fs, sf)])


class _Packed:
    """num / den: an integer polynomial packed into the int num, its value at
    X = 2^B, over an int den > 0, with the ring operations of such quotients."""

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
