"""Continued fractions of the recurrence, tails, and homographies.

The fraction attached to a scheme is

    R(z) = 1/(rho_0(z-c_0) - lam_1 W_1(z)/(rho_1(z-c_1) - lam_2 W_2(z)/(...)))

whose depth-n convergent equals Q_n(z)/P_n(z).  A tail starts at a later
coefficient index (start = kp+1 gives the (kp+1)-th tail, whose depth-m
convergent is the ratio of second- to first-kind associated polynomials of
that order), and perturbations are applied by absolute coefficient index.
Every function takes (scheme, perturbation, ...), the perturbation a
Perturbation or None.

Evaluation runs bottom-up on the fraction's continuants, so a vanishing
denominator is detected at a specific coefficient index: exact z raises
PoleError naming it.  A float or complex z is evaluated exactly and rounded
once; an intermediate zero is absorbed and a zero final denominator gives +inf.
The continuants come from one scaled loop over `sequences.cleared_terms`:
each level's two terms are scaled by the lcm of their denominators at a
rational z (a float's binary rational included) with a real weight, so the
convergent is one Fraction of two ints there, and by 1 at every other level,
which then runs on its Fraction or GaussianRational terms.

Homographies u -> (a u + b)/(c u + d) with polynomial entries and nonzero
determinant tie the perturbed fraction to the unperturbed one:

    R_n(z; mu, nu) = apply(cof(S), R_n(z))        (matched truncation, n >= kp+1)

where S is the perturbation transfer matrix and cof its cofactor matrix.  The
identity is exact at every finite matched depth, not just in the limit,
because both sides reduce to the same tail value.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import PoleError
from .exact import exact_point, rounded
from .polymat import PolyMatrix2
from .schemes import Perturbation
from .sequences import cleared_terms, gen_both_kinds, weight_term
from .transfer import f_matrix, perturbation_transfer


def convergent(scheme, perturbation, depth, z):
    """Depth-n convergent (= Q*_n/P*_n of the perturbed families).

    depth 0 is the empty fraction, 0.  Exact z gives an exact scalar; a float
    or complex z gives the exact value rounded once, or +inf at a pole.
    """
    return tail_convergent(scheme, perturbation, -1, depth, z)


def tail_convergent(scheme, perturbation, kp, depth, z):
    """Convergent of the fraction that remains after deleting indices <= kp.

    kp = -1 is the full fraction.  depth 0 returns 0 (the empty tail), the
    value the matched-truncation chain needs at n = kp+1.
    """
    if kp < -1:
        raise ValueError("kp must be >= -1")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    x = exact_point(z)
    # poles raise at exact z only
    u0, u1 = _continuants(scheme, perturbation, kp + 1, depth, x, strict=x is z)
    if u0 == 0:
        return math.inf
    return rounded(Fraction(u1, u0) if isinstance(u0, int) else u1 / u0, z)


def singular_index(scheme, perturbation, depth):
    """Coefficient index of a nested denominator that vanishes identically.

    Run on polynomials, `_continuants` raises PoleError at the index where
    exact evaluation of the convergent at this depth raises it at every z;
    that (deepest) index is returned, else None.
    """
    try:
        _continuants(scheme, perturbation, 0, depth)
    except PoleError as exc:
        return exc.index
    return None


def _continuants(scheme, perturbation, s, depth, z=None, strict=True):
    """(U_0, U_1) with U_1/U_0 the convergent: Polys when z is None, else values.

    The fraction starts at coefficient index s.  With b, a the center and
    weight terms, U_depth = 1 and U_j = b_{s+j} U_{j+1} - a_{s+j+1} U_{j+2}.
    U_j/U_{j+1} is the nested denominator at index s+j; with strict, dividing
    by a zero one raises PoleError(s+j).  A zero partial numerator (e.g.
    special form, z = +-i*omega) truncates there.

    Level j is scaled by t_j, the scale `cleared_terms` gives its two terms,
    so V_j = (t_j b) V_{j+1} - (t_j t_{j+1} a) V_{j+2} holds V_j = E_j U_j
    with E_j = t_j E_{j+1}, and U_1/U_0 = t_0 V_1/V_0.  At a rational z with
    real terms the pair is two ints; a level with t_j = 1 runs on its exact
    terms.  Scaling keeps every zero, so a pole raises at the same index.
    """
    pert = perturbation or Perturbation.none()
    lower, upper = 0, 1                        # V_{j+2}, V_{j+1}
    scale = 1                                  # t_{j+1}
    for j in range(depth - 1, -1, -1):
        k = s + j + 1 if j < depth - 1 else None
        t, b, a = cleared_terms(scheme, pert, s + j, k, z)
        if scale != 1:
            a *= scale
        scale = t
        if a == 0:
            lower, upper = 1, b
        else:
            if strict and upper == 0:
                raise PoleError(s + j + 1)
            lower, upper = upper, b * upper - a * lower
    if strict and upper == 0:
        raise PoleError(s)
    return upper, scale * lower


class Homography:
    """u -> (a(z) u + b(z)) / (c(z) u + d(z)) with polynomial entries."""

    def __init__(self, matrix):
        if not isinstance(matrix, PolyMatrix2):
            raise TypeError("Homography wraps a PolyMatrix2")
        if matrix.det().is_zero():
            raise ValueError("homography determinant vanishes identically")
        self.matrix = matrix

    def apply(self, u, z):
        """(a u + b)/(c u + d), entries at z; u = +-inf maps to a/c.  Exact at
        exact u and z (a zero denominator raises PoleError), else exact at the
        points stored and rounded once (a zero denominator gives signed inf)."""
        x = exact_point(z)
        if u == math.inf or u == -math.inf:
            (a, _), (c, _) = self.matrix.eval_at(x)
            num, den, exact = a, c, False
        else:
            v = exact_point(u)
            num, den = self._terms(v, x)
            exact = v is u and x is z
        if den == 0:
            if exact:
                raise PoleError(message="homography denominator vanished at z = %s" % (z,))
            return math.copysign(math.inf, complex(num).real or 1.0)
        return rounded(Fraction(num, den) if isinstance(den, int) else num / den, u, z)

    def _terms(self, v, x):
        """(a v + b, c v + d) at exact v and x.  With v = p/q, rational x and
        rational entries e(x) = e_n/e_d (`Poly.ratio_at`), two ints of the same
        ratio: (a_n p b_d + b_n q a_d) c_d d_d and (c_n p d_d + d_n q c_d) a_d b_d.
        Otherwise the two values."""
        if isinstance(v, (int, Fraction)) and isinstance(x, (int, Fraction)):
            try:
                (an, ad), (bn, bd), (cn, cd), (dn, dd) = [
                    entry.ratio_at(x) for entry in self.matrix.entries()]
            except TypeError:      # a non-real entry
                pass
            else:
                p, q = v.as_integer_ratio()
                return ((an * p * bd + bn * q * ad) * cd * dd,
                        (cn * p * dd + dn * q * cd) * ad * bd)
        (a, b), (c, d) = self.matrix.eval_at(x)
        return a * v + b, c * v + d


def lemma1_matrix(scheme, perturbation):
    """The homography mapping the plain (m+1)-th tail to the perturbed fraction.

    With m = max(k, kp), g = lambda_{m+1} W_{m+1} and all sequences carrying
    the full perturbation, which only reaches them through levels <= m:

        [[ g * Q_m,  -Q_{m+1} ],
         [ g * P_m,  -P_{m+1} ]]

    Satisfies R_n(z; mu, nu) = apply(., tail at depth n-m-1) exactly for
    n >= m+1, for either order of k and kp.
    """
    pert = perturbation or Perturbation.none()
    level = pert.max_level()
    if level < 0:
        raise ValueError("lemma1_matrix needs at least one perturbation level")
    p, q = gen_both_kinds(scheme, pert, level + 1)
    g = weight_term(scheme, pert, level + 1)
    return Homography(PolyMatrix2(
        g * q[level], -q[level + 1],
        g * p[level], -p[level + 1],
    ))


def spectral_transform(scheme, perturbation):
    """The homography cof(S) taking R(z) to R(z; mu, nu), S the transfer matrix.

    It depends on the scheme and the perturbation only, not on z or on the
    truncation depth, so one build serves every point of an instance.
    """
    return Homography(perturbation_transfer(scheme, perturbation).cofactor_matrix())


def spectral_residual(scheme, perturbation, depth, z, transform=None):
    """R_depth(z; mu,nu) - apply(cof(S), R_depth(z)) at matched truncation.

    Exactly zero (exact z) whenever depth >= max(k, kp) + 1.  Poles of either
    convergent propagate as PoleError.  `transform` is the instance's
    spectral_transform when the caller has already built it.
    """
    level = (perturbation or Perturbation.none()).max_level()
    if depth < level + 1:
        raise ValueError("matched truncation needs depth >= max perturbation level + 1")
    if transform is None:
        transform = spectral_transform(scheme, perturbation)
    lhs = convergent(scheme, perturbation, depth, z)
    rhs = transform.apply(convergent(scheme, None, depth, z), z)
    return lhs - rhs


def spectral_gap(scheme, perturbation, depth_perturbed, depth_plain, z):
    """|R(z;mu,nu) at one depth - transformed R(z) at another| as a float.

    Exact at the point z stores, rounded once; a pole on either side gives inf.
    Diagnostic for unmatched truncations: decreases toward 0 as both depths
    grow (the limit functions satisfy the transformation identity).
    """
    transform = spectral_transform(scheme, perturbation)
    x = exact_point(z)
    try:
        lhs = convergent(scheme, perturbation, depth_perturbed, x)
        rhs = transform.apply(convergent(scheme, None, depth_plain, x), x)
    except PoleError:
        return math.inf
    return abs(complex(lhs - rhs))


def lemma2_residual(scheme, kp, n, z):
    """g * tail_{n-kp-1}(z) - apply(F_{kp+1}, R_n(z)) with g = lam_{kp+1} W_{kp+1}.

    The companion identity: the F-matrix homography maps the full fraction
    back to its (kp+1)-th tail.  Exactly zero for n >= kp+1 at exact z away
    from poles.
    """
    if n < kp + 1:
        raise ValueError("needs n >= kp + 1")
    g = weight_term(scheme, Perturbation.none(), kp + 1, z)
    tail = tail_convergent(scheme, None, kp, n - kp - 1, z)
    h = Homography(f_matrix(scheme, None, kp))
    return g * tail - h.apply(convergent(scheme, None, n, z), z)
