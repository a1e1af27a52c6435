"""Continued fractions of the recurrence, tails, and homographies.

The fraction attached to a scheme is

    R(z) = 1/(rho_0(z-c_0) - lam_1 W_1(z)/(rho_1(z-c_1) - lam_2 W_2(z)/(...)))

whose depth-n convergent equals Q_n(z)/P_n(z).  A CFracSpec may start at a
later coefficient index (start = kp+1 gives the (kp+1)-th tail, whose depth-m
convergent is the ratio of second- to first-kind associated polynomials of
that order), and perturbations are applied by absolute coefficient index.

Evaluation runs bottom-up on the fraction's continuants, so a vanishing
denominator is detected at a specific coefficient index: exact z raises
PoleError naming it.  A float or complex z is evaluated exactly and rounded
once; an intermediate zero is absorbed and a zero final denominator gives +inf.

Homographies u -> (a u + b)/(c u + d) with polynomial entries and nonzero
determinant tie the perturbed fraction to the unperturbed one:

    R_n(z; mu, nu) = apply(cof(S), R_n(z))        (matched truncation, n >= kp+1)

where S is the perturbation transfer matrix and cof its cofactor matrix.  The
identity is exact at every finite matched depth, not just in the limit,
because both sides reduce to the same tail value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import PoleError
from .exact import exact_point, rounded
from .polymat import PolyMatrix2
from .schemes import Perturbation
from .sequences import center_term, gen_first_kind, gen_second_kind, weight_term
from .transfer import f_matrix, perturbation_transfer


@dataclass(frozen=True)
class CFracSpec:
    scheme: object
    perturbation: object = None
    start: int = 0

    def pert(self):
        return self.perturbation or Perturbation.none()


def convergent(spec, depth, z):
    """Depth-n convergent (= Q_n/P_n of the shifted, perturbed families).

    depth 0 is the empty fraction, 0.  Exact z gives an exact scalar; a float
    or complex z gives the exact value rounded once, or +inf at a pole.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    x = exact_point(z)
    u0, u1 = _continuants(spec, depth, x, strict=x is z)   # poles raise at exact z only
    return rounded(u1 / u0, z) if u0 != 0 else math.inf


def singular_index(spec, depth):
    """Coefficient index of a nested denominator that vanishes identically.

    Run on polynomials, `_continuants` raises PoleError at the index where
    exact evaluation of the convergent at this depth raises it at every z;
    that (deepest) index is returned, else None.
    """
    try:
        _continuants(spec, depth)
    except PoleError as exc:
        return exc.index
    return None


def _continuants(spec, depth, z=None, strict=True):
    """(U_0, U_1) with U_1/U_0 the convergent: Polys when z is None, else values.

    With b, a the center and weight terms, U_depth = 1 and U_j = b_{s+j}
    U_{j+1} - a_{s+j+1} U_{j+2}.  U_j/U_{j+1} is the nested denominator at
    index s+j; with strict, dividing by a zero one raises PoleError(s+j).  A
    zero partial numerator (e.g. special form, z = +-i*omega) truncates there.
    """
    scheme = spec.scheme
    pert = spec.pert()
    s = spec.start
    lower, upper = Fraction(0), Fraction(1)    # U_{j+2}, U_{j+1}
    for j in range(depth - 1, -1, -1):
        a = weight_term(scheme, pert, s + j + 1, z) if j < depth - 1 else 0
        b = center_term(scheme, pert, s + j, z)
        if a == 0:
            lower, upper = 1, b
        else:
            if strict and upper == 0:
                raise PoleError(s + j + 1)
            lower, upper = upper, b * upper - a * lower
    if strict and upper == 0:
        raise PoleError(s)
    return upper, lower


def tail_convergent(scheme, kp, depth, z, perturbation=None):
    """Convergent of the fraction that remains after deleting indices <= kp.

    kp = -1 is the full fraction.  depth 0 returns 0 (the empty tail), the
    value the matched-truncation chain needs at n = kp+1.
    """
    if kp < -1:
        raise ValueError("kp must be >= -1")
    return convergent(CFracSpec(scheme, perturbation, kp + 1), depth, z)


class Homography:
    """u -> (a(z) u + b(z)) / (c(z) u + d(z)) with polynomial entries."""

    def __init__(self, matrix):
        if not isinstance(matrix, PolyMatrix2):
            raise TypeError("Homography wraps a PolyMatrix2")
        if matrix.det().is_zero():
            raise ValueError("homography determinant vanishes identically")
        self.matrix = matrix

    @staticmethod
    def identity():
        return Homography(PolyMatrix2.identity())

    def compose(self, other):
        """self after other (matrix product)."""
        return Homography(self.matrix @ other.matrix)

    def inverse(self):
        """Projective inverse: adj(M) undoes M wherever det(M)(z) != 0."""
        return Homography(self.matrix.adjugate())

    def apply(self, u, z):
        """(a u + b)/(c u + d), entries at z; u = +-inf maps to a/c.  Exact at
        exact u and z (a zero denominator raises PoleError), else exact at the
        points stored and rounded once (a zero denominator gives signed inf)."""
        x = exact_point(z)
        (a, b), (c, d) = self.matrix.eval_at(x)
        if u == math.inf or u == -math.inf:
            num, den, exact = a, c, False
        else:
            v = exact_point(u)
            num, den, exact = a * v + b, c * v + d, v is u and x is z
        if den == 0:
            if exact:
                raise PoleError(message="homography denominator vanished at z = %s" % (z,))
            return math.copysign(math.inf, complex(num).real or 1.0)
        return rounded(num / den, u, z)


def lemma1_matrix(scheme, k=None, kp=None, mu=None, nu=None):
    """The homography mapping the plain (kp+1)-th tail to the perturbed fraction.

    Entries (g = lambda_{kp+1} W_{kp+1}, all sequences carrying the full
    perturbation, which only reaches them through levels <= kp):

        [[ g * Q_kp,  -Q_{kp+1} ],
         [ g * P_kp,  -P_{kp+1} ]]

    Satisfies R_n(z; mu, nu) = apply(., tail at depth n-kp-1) exactly for
    n >= kp+1.  Perturbation orders with k <= kp are supported here (the
    matrix lives at level kp).
    """
    pert = Perturbation(k=k, mu=mu, kp=kp, nu=nu)
    level = pert.max_level()
    if pert.kp is not None:
        if pert.k is not None and pert.k > pert.kp:
            raise ValueError("lemma1_matrix needs k <= kp")
        level = pert.kp
    if level < 0:
        raise ValueError("lemma1_matrix needs at least one perturbation level")
    p = gen_first_kind(scheme, pert, level + 1)
    q = gen_second_kind(scheme, pert, level + 1)
    g = weight_term(scheme, pert, level + 1)
    return Homography(PolyMatrix2(
        g * q[level], -q[level + 1],
        g * p[level], -p[level + 1],
    ))


def spectral_transform(scheme, k=None, kp=None, mu=None, nu=None):
    """The homography cof(S) taking R(z) to R(z; mu, nu), S the transfer matrix.

    It depends on the scheme and the perturbation only, not on z or on the
    truncation depth, so one build serves every point of an instance.
    """
    return Homography(perturbation_transfer(scheme, k, kp, mu, nu).cofactor_matrix())


def spectral_residual(scheme, k=None, kp=None, mu=None, nu=None, z=0, depth=None,
                      transform=None):
    """R_depth(z; mu,nu) - apply(cof(S), R_depth(z)) at matched truncation.

    Exactly zero (exact z) whenever depth >= max(k, kp) + 1.  Poles of either
    convergent propagate as PoleError.  `transform` is the instance's
    spectral_transform when the caller has already built it.
    """
    pert = Perturbation(k=k, mu=mu, kp=kp, nu=nu)
    level = pert.max_level()
    if depth is None or depth < level + 1:
        raise ValueError("matched truncation needs depth >= max perturbation level + 1")
    if transform is None:
        transform = spectral_transform(scheme, k, kp, mu, nu)
    lhs = convergent(CFracSpec(scheme, pert), depth, z)
    rhs = transform.apply(convergent(CFracSpec(scheme, None), depth, z), z)
    return lhs - rhs


def spectral_gap(scheme, k=None, kp=None, mu=None, nu=None, z=0.0,
                 depth_perturbed=8, depth_plain=8):
    """|R(z;mu,nu) at one depth - transformed R(z) at another| as a float.

    Exact at the point z stores, rounded once; a pole on either side gives inf.
    Diagnostic for unmatched truncations: decreases toward 0 as both depths
    grow (the limit functions satisfy the transformation identity).
    """
    pert = Perturbation(k=k, mu=mu, kp=kp, nu=nu)
    transform = spectral_transform(scheme, k, kp, mu, nu)
    x = exact_point(z)
    try:
        lhs = convergent(CFracSpec(scheme, pert), depth_perturbed, x)
        rhs = transform.apply(convergent(CFracSpec(scheme, None), depth_plain, x), x)
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
    tail = tail_convergent(scheme, kp, n - kp - 1, z)
    h = Homography(f_matrix(scheme, None, kp))
    return g * tail - h.apply(convergent(CFracSpec(scheme, None), n, z), z)
