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
(P, Q) family from `gen_both_kinds`.  The values perturbed only below a level
L are the first L + 1 values of the perturbed family itself (see
`rii.sequences`), so no family is rebuilt for part of a perturbation.
`transfer_residual` is the one check of the transfer theorem: S written
entry by entry through an explicit level-m step must equal the product form,
and the matrix identity above must hold, both as exact polynomial matrices.
`structural_residual` checks the scalar structural identities at a point.
`f_matrix` reads F_{n+1} off the two families instead of multiplying n + 1
step matrices; `step_matrix` keeps the product form as a reference.
"""

from __future__ import annotations

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


def _f(family, n):
    """F_{n+1} read off a (P, Q) family pair that runs through index n + 1."""
    p, q = family
    return PolyMatrix2(p[n + 1], -q[n + 1], p[n], -q[n])


def _read(scheme, perturbation, n):
    """The plain and the perturbed (P, Q) families through index n."""
    return gen_both_kinds(scheme, None, n), gen_both_kinds(scheme, perturbation, n)


def f_matrix(scheme, perturbation, n):
    """F_{n+1} = T_n ... T_0 = [[P_{n+1}, -Q_{n+1}], [P_n, -Q_n]], read off the
    two families rather than multiplied out."""
    if n < 0:
        raise ValueError("n must be >= 0, got %d" % n)
    return _f(gen_both_kinds(scheme, perturbation, n + 1), n)


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
    order of k and kp and for the same-level case.  The empty perturbation
    (None) yields the identity matrix.
    """
    m = (perturbation or Perturbation.none()).max_level()
    return _transfer(*_read(scheme, perturbation, m + 1), m)


def _transfer(plain, perturbed, m):
    """S from the plain and perturbed families through index m + 1 or beyond."""
    if m < 0:
        return PolyMatrix2.identity()
    return _f(perturbed, m).transpose() @ _f(plain, m).adjugate().transpose()


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
    return _entries(scheme, pert, *_read(scheme, pert, m + 1), m)


def _entries(scheme, pert, plain, perturbed, m):
    """transfer_entries from the plain and perturbed families; of the perturbed
    one it reads only the values through index m."""
    if m < 0:
        return PolyMatrix2.identity()
    p_plain, q_plain = plain
    p_low, q_low = perturbed
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


def structural_residual(scheme, perturbation, n, z):
    """LHS - RHS of the first- and second-kind structural identities at z.

    LHS is u_{n+1}(z; mu, nu) by direct perturbed recurrence; RHS is the
    unperturbed value plus one correction term per perturbation level L <= n,
    each carrying the first-kind associated factor G^{(L+1)}_{n-L}(z) and the
    sequence values perturbed below L, which are the direct values u_L and
    u_{L-1}.  Exactly (0, 0) for exact z.
    """
    pert = perturbation or Perturbation.none()
    factors = {level: eval_sequence_at(scheme, None, "first", n - level, z,
                                       shift=level + 1)[-1]
               for level in (pert.k, pert.kp) if level is not None and level <= n}
    out = []
    for kind in ("first", "second"):
        direct = eval_sequence_at(scheme, pert, kind, n + 1, z)
        value = eval_sequence_at(scheme, None, kind, n + 1, z)[n + 1]
        for level, factor in factors.items():
            jump = 0
            if pert.k == level:
                jump -= pert.mu * scheme.rho(level) * direct[level]
            if pert.kp == level:
                w = scheme.weight_at(level, z)
                jump -= (pert.nu - 1) * scheme.lam(level) * w * direct[level - 1]
            value += jump * factor
        out.append(direct[n + 1] - value)
    return tuple(out)


def transfer_residual(scheme, perturbation, n):
    """The transfer theorem as two polynomial matrices that vanish for n >= m:

        transfer_entries - perturbation_transfer,
        K_m F^T_{n+1}(mu,nu) - S F^T_{n+1},

    both read off one plain and one perturbed family through index n + 1.
    """
    pert = perturbation or Perturbation.none()
    m = pert.max_level()
    if n < max(m, 0):
        raise ValueError("transfer identity needs n >= max perturbation level and n >= 0")
    plain, perturbed = _read(scheme, pert, n + 1)
    s = _transfer(plain, perturbed, m)
    kappa = lambda_weight_product(scheme, None, m)
    return (_entries(scheme, pert, plain, perturbed, m) - s,
            _f(perturbed, n).transpose().scale(kappa) - s @ _f(plain, n).transpose())
