"""Real zeros, quadrature weights, and integral estimates.

The n-point rule of a (possibly perturbed) scheme sits on the real zeros
x_1 < ... < x_n of P_n(.; mu, nu).  Two weight formulas are implemented:

* moment formula:
      w_j = M_0 * prod_{i=1..n-1} lam_i* W_i(x_j) / (P'_n(x_j) P_{n-1}(x_j)),
  with the perturbed sequences and the perturbed lam product (for the special
  form the W product collapses to (x_j^2 + omega^2)^(n-1));

* second-kind ratio:
      w_j = Q_n(x_j; mu, nu) / P'_n(x_j; mu, nu),
  exposed raw, or normalized by the calibrated mass constant M_0
  ("unit-mass"), which makes it agree with the moment formula for the
  identity perturbation.  The normalized weights sum to
  lead(Q_n)/lead(P_n) * M_0 (n/(n+1) for the worked example): total mass is
  approached, not hit, at finite n.

M_0 itself is calibrated without any floating point: the raw moment-formula
weight sum equals lead(Q_n)/lead(P_n) exactly (a residue identity), and a
two-point fit in n removes its C/(n+1) tail.  For the worked example this
yields exactly 1/2 at every n.

M_0 needs only leading coefficients, so it runs the recurrence loop
(`sequences.iterate`) on scalars: L_{m+1} = rho_m L_m - lam_m L_{m-1} (the
W_m are monic quadratics), without the lam term for oprl schemes (W = 1);
no polynomial family is built.

Every node is a binary float, so the polynomials are evaluated at it exactly
(`Poly.__call__`, integer Horner over one common denominator) and each float
the rule needs -- Newton residual and slope, residual gate, weight -- is one
correctly rounded integer division num / den.  The only floating-point error
in a rule is the node rounding itself.  `build_rule` generates P_0..P_n once,
and Q_n once for second-kind rules, and hands them to the weight formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ComplexZerosError, DegeneracyError, IntegrandError
from .exact import GaussianRational, simplify_scalar
from .schemes import Perturbation
from .sequences import gen_first_kind, gen_second_kind, iterate

MOMENT = "moment"
SECOND_KIND = "second-kind"
RAW = "raw"
UNIT_MASS = "unit-mass"


def _quotient(num, den):
    """num/den correctly rounded, as float(Fraction(num, den)) (so 0 is +0.0)."""
    if den < 0:
        num, den = -num, -den
    return num / den


def _has_nonreal_ratio(poly):
    """Whether some coefficient / leading coefficient is not real.

    P = lead * prod (z - x_j) with every x_j real has real ratios, so a
    non-real one proves a non-real zero, whatever the float roots show.
    """
    lead = poly.leading()
    return any(isinstance(simplify_scalar(c / lead), GaussianRational)
               for c in poly.coeffs)


def _roots_with_diagnostics(poly, tol_imag):
    if poly.degree < 1:
        raise ValueError("need a nonconstant polynomial")
    coeffs = poly.float_coeffs()
    raw = np.roots(coeffs[::-1])
    complex_pairs = []
    accepted = []
    near_real = []
    for r in raw:
        r = complex(r)
        if abs(r.imag) > tol_imag * (1.0 + abs(r.real)):
            complex_pairs.append(r)
        else:
            accepted.append(r.real)
            if r.imag != 0.0:
                near_real.append((r.real, r.imag))
    if complex_pairs:
        raise ComplexZerosError(sorted(complex_pairs, key=lambda v: (v.real, v.imag)))
    if any(isinstance(c, complex) for c in coeffs) and _has_nonreal_ratio(poly):
        raise ComplexZerosError(sorted((complex(x, y) for x, y in near_real),
                                       key=lambda v: (v.real, v.imag)))

    dpoly = poly.derivative()
    magnitudes = [abs(c) for c in poly.float_coeffs()]
    polished = []
    for x in accepted:
        for _ in range(40):
            residual = poly(x)
            if residual == 0.0:
                break
            slope = dpoly(x)
            if slope == 0.0:
                break
            step = residual / slope
            x_new = x - step
            if abs(x_new - x) <= 1e-16 * (1.0 + abs(x)):
                x = x_new
                break
            x = x_new
        scale = math.fsum(m * abs(x) ** j for j, m in enumerate(magnitudes))
        if abs(poly(x)) > 1e-13 * max(scale, 1e-300):
            raise DegeneracyError(
                "root polish failed near x = %.17g (residual above tolerance)" % x)
        polished.append(x)
    polished.sort()
    return polished, near_real


def real_zeros(poly, tol_imag=1e-9):
    """Sorted real zeros via companion eigenvalues + exact-coefficient Newton.

    Roots with |Im| <= tol_imag * (1 + |Re|) are accepted as real and
    polished; anything farther off the axis raises ComplexZerosError listing
    the pairs.
    """
    roots, _ = _roots_with_diagnostics(poly, tol_imag)
    return roots


def calibrate_m0(scheme, n, mass=1):
    """The mass constant M_0, exact.

    The raw moment-formula weight sum is s_n = lead(Q_n)/lead(P_n); assuming
    the tail shape s_n = L - C/(n+1) (exact for the worked example, where
    s_n = 2n/(n+1)), the two-point fit L = (n+2) s_{n+1} - (n+1) s_n removes
    the tail and M_0 = mass/L.  Independent of n whenever the shape assumption
    holds.

    The leading coefficients of the unperturbed P_m (degree m) and Q_m
    (degree m-1) follow the recurrence loop on scalars,
    L_{m+1} = rho_m L_m - lam_m L_{m-1}, without the lam term for oprl
    (there W_m = 1 lowers the degree instead of keeping it).
    """
    if n < 1:
        raise ValueError("calibration needs n >= 1, got %d" % n)
    lam = scheme.lam if scheme.kind != "oprl" else (lambda m: 0)
    lead_p = iterate(scheme.rho, lam, "first", n + 1)
    lead_q = iterate(scheme.rho, lam, "second", n + 1)

    def ratio(m):
        if lead_p[m] == 0 or lead_q[m] == 0:
            raise DegeneracyError("degenerate leading coefficient at index %d" % m)
        return lead_q[m] / lead_p[m]

    lead_sum = (n + 2) * ratio(n + 1) - (n + 1) * ratio(n)
    if lead_sum == 0:
        raise DegeneracyError("calibration failed: extrapolated weight sum is zero")
    return Fraction(mass) / lead_sum


def weights_moment_formula(scheme, perturbation, nodes, m0, p):
    """Weights by the moment formula at the given nodes (floats).

    p is the perturbed first-kind family through P_n (n = len(nodes)).
    """
    pert = perturbation or Perturbation.none()
    n = len(nodes)
    dp = p[n].derivative()
    product = Fraction(m0)
    powers = {}  # W_i -> how many i in 1..n-1 share it (one W in the special form)
    for i in range(1, n):
        product *= pert.coefficient(scheme, i)
        wp = scheme.weight_poly(i)
        powers[wp] = powers.get(wp, 0) + 1
    out = []
    for j, x in enumerate(nodes):
        num, den = product.numerator, product.denominator
        for wp, count in powers.items():
            a, b = wp.ratio_at(x)
            num *= a ** count
            den *= b ** count
        a, b = dp.ratio_at(x)
        c, d = p[n - 1].ratio_at(x)
        if a == 0 or c == 0:
            raise DegeneracyError("moment-formula denominator vanished at node %d" % j)
        out.append(_quotient(num * b * d, den * a * c))
    return out


def weights_second_kind(nodes, normalization, m0, p, q):
    """Weights Q_n/P'_n at the given nodes; raw or unit-mass normalized.

    p and q are the perturbed first- and second-kind families through index
    n = len(nodes); m0 is the unit-mass factor.
    """
    if normalization not in (RAW, UNIT_MASS):
        raise ValueError("normalization must be %r or %r" % (RAW, UNIT_MASS))
    n = len(nodes)
    dp = p[n].derivative()
    factor = Fraction(m0) if normalization == UNIT_MASS else Fraction(1)
    out = []
    for j, x in enumerate(nodes):
        a, b = dp.ratio_at(x)
        if a == 0:
            raise DegeneracyError("P'_n vanished at node %d (node not simple?)" % j)
        c, d = q[n].ratio_at(x)
        out.append(_quotient(factor.numerator * c * b, factor.denominator * d * a))
    return out


@dataclass(frozen=True)
class QuadratureRule:
    n: int
    nodes: tuple
    weights: tuple
    method: str
    perturbation: object
    m0: Fraction
    normalization: str = UNIT_MASS
    complex_flag: tuple = ()  # (re, im) of accepted roots that had tiny Im parts

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.nodes, self.nodes[1:])):
            raise DegeneracyError("nodes must be strictly increasing")


def build_rule(scheme, perturbation=None, n=1, method=MOMENT,
               normalization=UNIT_MASS, m0=None, tol_imag=1e-9):
    """Construct the n-point rule: perturbed zeros + the selected weights.

    Raises ComplexZerosError when the perturbed polynomial leaves the real
    line (the rule does not exist), DegeneracyError on vanishing weight
    denominators.
    """
    if n < 1:
        raise ValueError("a rule needs n >= 1 nodes, got %d" % n)
    if method not in (MOMENT, SECOND_KIND):
        raise ValueError("method must be %r or %r" % (MOMENT, SECOND_KIND))
    pert = perturbation or Perturbation.none()
    p = gen_first_kind(scheme, pert, n)
    nodes, near_real = _roots_with_diagnostics(p[n], tol_imag)
    if m0 is None:
        m0 = calibrate_m0(scheme, n)
    if method == MOMENT:
        weights = weights_moment_formula(scheme, pert, nodes, m0, p)
    else:
        q = gen_second_kind(scheme, pert, n)
        weights = weights_second_kind(nodes, normalization, m0, p, q)
    return QuadratureRule(
        n=n, nodes=tuple(nodes), weights=tuple(weights), method=method,
        perturbation=pert, m0=Fraction(m0), normalization=normalization,
        complex_flag=tuple(near_real),
    )


def estimate(rule, f):
    """sum_j w_j f(x_j) with compensated summation.

    f may be a callable or anything with an .evaluator attribute.  An
    integrand that fails, or is complex or not finite, at a node raises
    IntegrandError naming the node.
    """
    fn = f if callable(f) else f.evaluator
    terms = []
    for j, (x, w) in enumerate(zip(rule.nodes, rule.weights)):
        try:
            value = fn(x)
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise IntegrandError("integrand cannot be evaluated at node %d (x = %.17g): %s"
                                 % (j + 1, x, exc)) from exc
        if isinstance(value, complex):   # e.g. x^x at a negative node
            raise IntegrandError("integrand is complex at node %d (x = %.17g)" % (j + 1, x))
        if not math.isfinite(value):
            raise IntegrandError("integrand is not finite at node %d (x = %.17g)" % (j + 1, x))
        terms.append(w * value)
    return math.fsum(terms)


def exactness_check(scheme, n, p_degree, density=None):
    """Worst |rule - oracle| over f = x^m/(x^2+1)^n, m = 0..p_degree.

    The oracle integrates x^m * density(x) / (x^2+1)^n adaptively over the
    whole line; density defaults to the worked example's 1/(pi (1+x^2)), for
    which the rule is exact (to rounding) through m = 2n-1.
    """
    from scipy.integrate import quad

    if density is None:
        def density(x):
            return 1.0 / (math.pi * (1.0 + x * x))

    rule = build_rule(scheme, None, n, method=MOMENT)
    worst = 0.0
    for m in range(p_degree + 1):
        def f(x, _m=m):
            return x ** _m / (x * x + 1.0) ** n

        rule_value = estimate(rule, f)
        oracle, _err = quad(lambda x, _m=m: x ** _m * density(x) / (x * x + 1.0) ** n,
                            -np.inf, np.inf, epsabs=1e-13, epsrel=1e-13, limit=300)
        worst = max(worst, abs(rule_value - oracle))
    return worst
