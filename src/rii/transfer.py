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
(P, Q) family (`rii.sequences._Family`): Polys, or values at the exact point
for `structural_residual`, and only the members it reads are unpacked.  The
values perturbed only below a level L are the first L + 1 values of the
perturbed family itself (see `rii.sequences`), so no family is rebuilt for
part of a perturbation.
`transfer_residual` is the one check of the transfer theorem: S written
entry by entry through an explicit level-m step must equal the product form,
and the matrix identity above must hold, both as exact polynomial matrices.
`structural_residual` checks the scalar structural identities at a point.
`f_matrix` reads F_{n+1} off the two families instead of multiplying n + 1
step matrices; `step_matrix` keeps the product form as a reference.

`transfer_residual` builds its plain family first, so the perturbed one
takes every step but those at levels k and k' from the scheme's step table
(`rii.sequences._step_terms`) as the plain one has just filled it.  It
decides both identities on packed integers whenever every step of both
families is real, its terms integer Polys, that is unless some W_m
is not real (then it takes the Poly form above).  Each entry of either
residual is a sum of products of the families' members, the step terms
rho_m (z - c*_m) and lambda*_m W_m and the factors lambda_j W_j of K_m, each
an integer polynomial over an integer, so `rii.sequences._decided` reads it
exactly off the families' packed members (`_Family.members`): the width
proof is in the `rii.sequences` docstring.  On a correct build all eight
entries are 0.
"""

from __future__ import annotations

import math

from .exact import exact_point, rounded
from .polymat import PolyMatrix2
from .poly import Poly
from .schemes import Perturbation
from .sequences import _decided, _Family, _quotient, center_term, weight_term


def step_matrix(scheme, perturbation, n):
    """T_n with the perturbed center/coefficient substituted at n = k / kp.

    n = 0 returns the initial-condition matrix [[rho_0(z-c_0*), -1], [1, 0]]
    (det 1); lambda_0 is never queried.
    """
    pert = perturbation or Perturbation.none()
    top_right = -Poly.one() if n == 0 else -weight_term(scheme, pert, n)
    return PolyMatrix2(center_term(scheme, pert, n), top_right, Poly.one(), Poly.zero())


def _pair(scheme, perturbation, n, indices):
    """The (P, Q) family through index n, read back only at its indices >= 0."""
    return _Family(scheme, perturbation, ("first", "second"), 0, n, None,
                   [i for i in indices if i >= 0])


def f_matrix(scheme, perturbation, n):
    """F_{n+1} = T_n ... T_0 = [[P_{n+1}, -Q_{n+1}], [P_n, -Q_n]], read off the
    two families rather than multiplied out."""
    if n < 0:
        raise ValueError("n must be >= 0, got %d" % n)
    p, q = _pair(scheme, perturbation, n + 1, (n, n + 1)).values()
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
    plain, perturbed = (_pair(scheme, p, m + 1, (m, m + 1)).values() for p in (None, perturbation))
    return PolyMatrix2(*_product_form(plain, perturbed, m))


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
    plain = _pair(scheme, None, m + 1, (m, m + 1)).values()
    perturbed = _pair(scheme, pert, m + 1, (m - 1, m)).values()
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
    factors = {level: _Family(scheme, None, ("first",), level + 1, n - level, x,
                              (n - level,)).values()[0][n - level]
               for level in (pert.k, pert.kp) if level is not None and level <= n}
    # each level's correction reads u_L or u_{L-1} of the direct family
    direct_at = {n + 1, *factors, *[level - 1 for level in factors if level]}
    kinds = ("first", "second")
    out = []
    for direct, plain in zip(_Family(scheme, pert, kinds, 0, n + 1, x, direct_at).values(),
                             _Family(scheme, None, kinds, 0, n + 1, x, (n + 1,)).values()):
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
    when every step of both is real, decided on their values at
    X = 2^B (see the module docstring); otherwise on Polys.
    """
    pert = perturbation or Perturbation.none()
    m = pert.max_level()
    if n < max(m, 0):
        raise ValueError("transfer identity needs n >= max perturbation level and n >= 0")
    at = (m, m + 1, n, n + 1)
    plain, perturbed = _pair(scheme, None, n + 1, at), _pair(scheme, pert, n + 1, (m - 1, *at))
    steps = _steps(scheme, pert, m) if m >= 0 else []
    weights = [weight_term(scheme, Perturbation.none(), j) for j in range(1, m + 1)]
    if plain.integer and perturbed.integer:
        def residuals(bits):        # on quotients: bounds, or packed at X = 2^bits
            one = _quotient(Poly.one(), bits)
            return _residuals(plain.members(bits), perturbed.members(bits),
                              [_quotient(a, bits) for a in steps],
                              math.prod((_quotient(w, bits) for w in weights), start=one),
                              one, _quotient(Poly.zero(), bits), m, n)
        entries, identity = _decided(residuals)
    else:
        entries, identity = _residuals(plain.values(), perturbed.values(), steps,
                                       math.prod(weights, start=Poly.one()), Poly.one(),
                                       Poly.zero(), m, n)
    return PolyMatrix2(*entries), PolyMatrix2(*identity)


def _residuals(plain, perturbed, steps, kappa, one, zero, m, n):
    """Both residuals of `transfer_residual`, each its four entries row by row,
    in the ring of the values: plain and perturbed (P, Q) families, the
    level-m step terms (`_steps`), K_m, and that ring's one and zero."""
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
    return ([x - y for x, y in zip(entries, s)],
            [kappa * x - y for x, y in zip(fs, sf)])
