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
left matrix multiple of the unperturbed one from level m onward.  This module
verifies that identity and the scalar structural identities it transposes.

`f_matrix` reads F_{n+1} off one `gen_both_kinds` call instead of multiplying
n + 1 step matrices; `step_matrix` keeps the product form as a reference.
The scalar identities evaluate the families at z through
`sequences.eval_sequence_at`, one scaled loop that runs on integers at the
steps of a rational z with a real weight and on Fraction and
GaussianRational values at the others.  `Perturbation.below` decides which
parts of the perturbation lie below a level.
"""

from __future__ import annotations

from fractions import Fraction

from .polymat import PolyMatrix2
from .poly import Poly
from .schemes import Perturbation
from .sequences import center_term, eval_sequence_at, gen_both_kinds, weight_term

def step_matrix(scheme, perturbation, n):
    """T_n with the perturbed center/coefficient substituted at n = k / kp.

    n = 0 returns the initial-condition matrix [[rho_0(z-c_0*), -1], [1, 0]]
    (det 1); lambda_0 is never queried.
    """
    pert = perturbation or Perturbation.none()
    top_right = -Poly.one() if n == 0 else -weight_term(scheme, pert, n)
    return PolyMatrix2(center_term(scheme, pert, n), top_right, Poly.one(), Poly.zero())


def f_matrix(scheme, perturbation, n):
    """F_{n+1} = T_n ... T_0 = [[P_{n+1}, -Q_{n+1}], [P_n, -Q_n]], read off the
    two families rather than multiplied out."""
    if n < 0:
        raise ValueError("n must be >= 0, got %d" % n)
    p, q = gen_both_kinds(scheme, perturbation, n + 1)
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

    Built as F_{m+1}(mu,nu)^T @ adj(F_{m+1})^T, which is exact for either
    order of k and kp and for the same-level case.  The identity perturbation
    yields prod lambda_j W_j * I (the empty perturbation, None: the identity
    matrix).
    """
    pert = perturbation or Perturbation.none()
    m = pert.max_level()
    if m < 0:
        return PolyMatrix2.identity()
    plain = f_matrix(scheme, None, m)
    shifted = f_matrix(scheme, pert, m)
    return shifted.transpose() @ plain.adjugate().transpose()


def transfer_entries(scheme, perturbation):
    """S assembled from the polynomial sequences per the structural theorems.

    With m = max(k, kp), writes the top entries through one perturbed
    recurrence step applied to the lower-perturbed sequence values:

        S11 = -P*_{m+1} Q_m + P°_m Q_{m+1}      S12 = -P*_{m+1} P_m + P°_m P_{m+1}
        S21 =  Q*_{m+1} Q_m - Q°_m Q_{m+1}      S22 =  Q*_{m+1} P_m - Q°_m P_{m+1}

    where ° marks the sequence perturbed only below m and * the value after
    the level-m step.  Cross-checks perturbation_transfer entry by entry.
    """
    pert = perturbation or Perturbation.none()
    m = pert.max_level()
    if m < 0:
        return PolyMatrix2.identity()
    p_plain, q_plain = gen_both_kinds(scheme, None, m + 1)
    p_low, q_low = gen_both_kinds(scheme, pert.below(m), m)

    a_step = center_term(scheme, pert, m)
    if m == 0:
        # Step 0: the P-side lambda term multiplies P_{-1} = 0; Q_1 is an
        # initial value, untouched by any perturbation.
        top_p = a_step * p_low[0]
        top_q = Poly.one()
    else:
        b_step = weight_term(scheme, pert, m)
        top_p = a_step * p_low[m] - b_step * p_low[m - 1]
        top_q = a_step * q_low[m] - b_step * q_low[m - 1]

    return PolyMatrix2(
        -top_p * q_plain[m] + p_low[m] * q_plain[m + 1],
        -top_p * p_plain[m] + p_low[m] * p_plain[m + 1],
        top_q * q_plain[m] - q_low[m] * q_plain[m + 1],
        top_q * p_plain[m] - q_low[m] * p_plain[m + 1],
    )


def _association_value(scheme, level, n, z):
    """G^{(level+1)}_{n-level}(z) with the convention that negative index is 0."""
    length = n - level
    if length < 0:
        return Fraction(0)
    values = eval_sequence_at(scheme, None, "first", length, z, shift=level + 1)
    return values[length]


def _structural_value(scheme, pert, kind, n, z):
    """RHS of the structural identity for u_{n+1} at z (kind "first"/"second")."""
    plain = eval_sequence_at(scheme, None, kind, n + 1, z)
    value = plain[n + 1]
    levels = sorted({level for level in (pert.k, pert.kp) if level is not None})
    below = plain  # values of the sequence perturbed at the levels below this one
    for level in levels:
        if level > n:
            break
        if level > levels[0]:
            below = eval_sequence_at(scheme, pert.below(level), kind, level, z)
        jump = Fraction(0)
        if pert.k == level:
            jump = jump - pert.mu * scheme.rho(level) * below[level]
        if pert.kp == level:
            w = scheme.weight_at(level, z)
            jump = jump - (pert.nu - 1) * scheme.lam(level) * w * below[level - 1]
        value = value + jump * _association_value(scheme, level, n, z)
    return value


def structural_residual(scheme, perturbation, n, z):
    """LHS - RHS of the first- and second-kind structural identities at z.

    LHS is u_{n+1}(z; mu, nu) by direct perturbed recurrence; RHS is the
    unperturbed value plus one correction term per perturbation event, each
    carrying the first-kind associated factor G^{(level+1)}_{n-level} and the
    sequence value already perturbed below that level.  Exactly (0, 0) for
    exact z.
    """
    pert = perturbation or Perturbation.none()
    out = []
    for kind in ("first", "second"):
        direct = eval_sequence_at(scheme, pert, kind, n + 1, z)[n + 1]
        out.append(direct - _structural_value(scheme, pert, kind, n, z))
    return tuple(out)


def transfer_residual(scheme, perturbation, n, z):
    """Entrywise K_m(z) F^T_{n+1}(z; mu,nu) - S(z) F^T_{n+1}(z); zero for n >= m."""
    pert = perturbation or Perturbation.none()
    m = pert.max_level()
    if n < m:
        raise ValueError("transfer identity needs n >= max perturbation level")
    kappa = lambda_weight_product(scheme, None, m)(z)
    s = perturbation_transfer(scheme, pert)
    (s11, s12), (s21, s22) = s.eval_at(z)

    p = eval_sequence_at(scheme, None, "first", n + 1, z)
    q = eval_sequence_at(scheme, None, "second", n + 1, z)
    pp = eval_sequence_at(scheme, pert, "first", n + 1, z)
    qp = eval_sequence_at(scheme, pert, "second", n + 1, z)
    # F^T rows: (P_{n+1}, P_n) and (-Q_{n+1}, -Q_n)
    g = ((p[n + 1], p[n]), (-q[n + 1], -q[n]))
    gp = ((pp[n + 1], pp[n]), (-qp[n + 1], -qp[n]))

    return (
        (kappa * gp[0][0] - (s11 * g[0][0] + s12 * g[1][0]),
         kappa * gp[0][1] - (s11 * g[0][1] + s12 * g[1][1])),
        (kappa * gp[1][0] - (s21 * g[0][0] + s22 * g[1][0]),
         kappa * gp[1][1] - (s21 * g[0][1] + s22 * g[1][1])),
    )
