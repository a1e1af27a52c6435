"""Reduction of constant-node schemes to real-line three-term recurrences.

When a_n = b_n = a for every n, the substitution z = (alpha x + beta)/
(gamma x + delta) with alpha = gamma * a and alpha*delta - beta*gamma != 0
turns the weighted recurrence into a classical one,

    Phat_{n+1}(x) = rhohat_n (x - chat_n) Phat_n(x) - lamhat_n Phat_{n-1}(x),

with   lamhat_n = lam_n (beta - a delta)^2,
       rhohat_n = rho_n (alpha - gamma c_n),
       chat_n   = (delta c_n - beta)/(alpha - gamma c_n),

and Phat_n(x) = (gamma x + delta)^n P_n((alpha x + beta)/(gamma x + delta)).

The reduced scheme is an ordinary CoefficientScheme of kind "oprl", so every
identity checker in this package applies to it unchanged.

This module also carries the corrected-vs-flawed comparison for the monic,
shifted-index convention

    P_{n+1}(x) = (x - c_{n+1}) P_n(x) - lam_n P_{n-1}(x),

where a perturbation (mu at c_{k+1}, nu at lam_k) lands on step n = k and the
correction term is W_k(x) = mu P_k + (nu - 1) lam_k P_{k-1}:

    correct:  P_n(x; mu, nu) = P_n - W_k * A^{(k+1)}_{n-k-1}
    flawed:   P_n - W_k * A^{(k)}_{n-k}       (associated order off by one)

with A^{(j)} the monic associated family of order j.  At n = k+1 the flawed
form misses by exactly -W_k(x) * (x - c_{k+1} - 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import SingularReductionError
from .exact import rational
from .poly import Poly
from .schemes import CoefficientScheme, Perturbation
from .sequences import eval_recurrence_at, gen_first_kind
from .transfer import structural_residual


@dataclass(frozen=True)
class MobiusParams:
    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    delta: Fraction
    a: Fraction  # the constant node of the scheme being reduced

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "delta", "a"):
            object.__setattr__(self, name, rational(getattr(self, name)))
        if self.alpha * self.delta - self.beta * self.gamma == 0:
            raise ValueError("Moebius parameters are singular (alpha*delta = beta*gamma)")
        if self.alpha != self.gamma * self.a:
            raise ValueError("reduction constraint alpha = gamma * a violated")

    def image(self, x):
        """(alpha x + beta)/(gamma x + delta); raises on the pole."""
        x = rational(x)
        den = self.gamma * x + self.delta
        if den == 0:
            raise ZeroDivisionError("Moebius map pole at x = %s" % (x,))
        return (self.alpha * x + self.beta) / den


def reduce_to_oprl(scheme, params, n_max):
    """Map a constant-node scheme to its oprl scheme, tabulated for n <= n_max.

    Errors: nonconstant or complex nodes -> ValueError; a vanishing
    alpha - gamma*c_n -> SingularReductionError naming the index; beta = a*delta
    (degenerate lamhat = 0) -> ValueError.
    """
    if scheme.kind == "oprl":
        raise ValueError("scheme is already in reduced form")
    for n in range(n_max + 1):
        a_n, b_n = scheme.nodes(n)
        if a_n != params.a or b_n != params.a:
            raise ValueError(
                "reduction needs constant real nodes a_n = b_n = %s; index %d has (%s, %s)"
                % (params.a, n, a_n, b_n))
    if params.beta == params.a * params.delta:
        raise ValueError("degenerate parameters: beta = a*delta makes every lamhat = 0")

    scale = params.beta - params.a * params.delta
    rho_hat, c_hat, lam_hat = [], [], [Fraction(0)]  # lamhat_0 is never queried
    for n in range(n_max + 1):
        den = params.alpha - params.gamma * scheme.c(n)
        if den == 0:
            raise SingularReductionError(n)
        rho_hat.append(scheme.rho(n) * den)
        c_hat.append((params.delta * scheme.c(n) - params.beta) / den)
        if n >= 1:
            lam_hat.append(scheme.lam(n) * scale * scale)
    return CoefficientScheme.oprl(rho_hat, c_hat, lam_hat)


def mobius_check(scheme, params, n, x):
    """(Phat_n(x), (gamma x + delta)^n P_n(image(x))) — equal when the

    reduction is consistent.  Exact for rational x away from the map's pole.
    """
    x = rational(x)
    reduced = reduce_to_oprl(scheme, params, max(n, 1))
    lhs = eval_recurrence_at(reduced, None, "first", n, x)
    z = params.image(x)
    rhs = (params.gamma * x + params.delta) ** n * eval_recurrence_at(
        scheme, None, "first", n, z)
    return lhs, rhs


def coprl_structural(oprl, k=None, kp=None, mu=None, nu=None, n=0, x=0):
    """Structural residual pair on a reduced scheme (delegates; zero in exact mode)."""
    pert = Perturbation(k=k, mu=mu, kp=kp, nu=nu)
    return structural_residual(oprl, pert, n, rational(x))


# --- monic, shifted-index convention ---------------------------------------

def _monic_view(oprl, order, k=None, mu=0, nu=1):
    """The monic recurrence of `order` as an oprl scheme.

    Step m has rho 1, center c_{m+order+1} (+ mu at m = k) and lam_{m+order}
    (* nu at m = k).  (mu, nu) live in the view rather than in a
    Perturbation, whose checks would reject a nu <= 0 that the monic
    demonstration accepts.
    """
    def center(m):
        c = oprl.c(m + order + 1)
        return c + mu if m == k else c

    def lam(m):
        value = oprl.lam(m + order)
        return value * nu if m == k else value

    return CoefficientScheme.oprl(1, center, lam)


def monic_sequence(oprl, n, k=None, mu=0, nu=1):
    """P_0..P_n of P_{j+1} = (x - c_{j+1}) P_j - lam_j P_{j-1} as Polys.

    The optional perturbation (mu, nu) lands on step j = k: center c_{k+1}
    shifts by mu and lam_k scales by nu.  Step 0 has no lam term.
    """
    view = _monic_view(oprl, 0, k, rational(mu), rational(nu))
    return list(gen_first_kind(view, None, n))


def monic_associated(oprl, order, n):
    """A^{(order)}_0..n: same monic recurrence with indices shifted by order."""
    return list(gen_first_kind(_monic_view(oprl, order), None, n))


def _flawed_shift_value(plain, correction, assoc_order_k, n, k):
    """Deliberately wrong combination: uses the order-k associated family.

    Quarantined reproduction of a misprinted index convention; kept only so
    corrected_vs_flawed can exhibit the discrepancy.  Never use for identities.
    """
    return plain[n] - correction * assoc_order_k[n - k]


@dataclass(frozen=True)
class CorrectionReport:
    direct: object        # scalar at x: perturbed recurrence value P_{k+1}
    corrected: object     # scalar at x: corrected closed form (== direct)
    flawed: object        # scalar at x: flawed closed form
    discrepancy: Poly     # flawed - direct as an exact polynomial
    correction: Poly      # W_k(x) = mu P_k + (nu-1) lam_k P_{k-1}


def corrected_vs_flawed(oprl, k, mu, nu, x):
    """Compare direct recurrence, corrected formula, and flawed formula at n = k+1.

    Requires k >= 1 (so nu multiplies a live lam_k).  The discrepancy
    polynomial equals -W_k(x) * (x - c_{k+1} - 1) exactly.
    """
    if k < 1:
        raise ValueError("the comparison needs k >= 1")
    mu = rational(mu)
    nu = rational(nu)
    x = rational(x)
    n = k + 1
    plain = monic_sequence(oprl, n)
    direct_poly = monic_sequence(oprl, n, k=k, mu=mu, nu=nu)[n]
    correction = mu * plain[k] + (nu - 1) * oprl.lam(k) * plain[k - 1]
    assoc_next = monic_associated(oprl, k + 1, n - k - 1)
    corrected_poly = plain[n] - correction * assoc_next[n - k - 1]
    assoc_k = monic_associated(oprl, k, n - k)
    flawed_poly = _flawed_shift_value(plain, correction, assoc_k, n, k)
    return CorrectionReport(
        direct=direct_poly(x),
        corrected=corrected_poly(x),
        flawed=flawed_poly(x),
        discrepancy=flawed_poly - direct_poly,
        correction=correction,
    )
