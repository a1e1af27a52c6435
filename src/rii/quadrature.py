"""Real zeros, quadrature weights, and integral estimates.

The n-point rule of a (possibly perturbed) scheme sits on the real zeros
x_1 < ... < x_n of P*_n = P_n(.; mu, nu) and weighs them by the second-kind
ratio

    w_j = M_0 Q*_n(x_j) / P*_n'(x_j),

the Christoffel number written as a residue of the convergent Q*_n/P*_n.
At an exact zero it equals the moment formula

    w_j = M_0 prod_{i=1..n-1} lam*_i W_i(x_j) / (P*_n'(x_j) P*_{n-1}(x_j))

for every scheme and perturbation: the Casorati identity
Q*_n P*_{n-1} - P*_n Q*_{n-1} = prod lam*_i W_i turns one numerator into the
other where P*_n vanishes.  At a float node the two differ by
M_0 P*_n Q*_{n-1} / (P*_n' P*_{n-1}); `weights_moment_formula` is kept as an
exact reference for that comparison.

M_0 is chosen in one place, `build_rule`, which calibrates it once per
scheme object and n, without any floating point: the raw weights (M_0 = 1)
sum to lead(Q_n)/lead(P_n) exactly (a residue identity), and a two-point fit
in n removes its C/(n+1) tail.  For the worked example this yields exactly
1/2 at every n, and the weights sum to n/(n+1): total mass is approached,
not hit, at finite n.

M_0 needs only leading coefficients, so it runs the recurrence loop
(`sequences.iterate`) on scalars: L_{m+1} = rho_m L_m - lam_m L_{m-1} (the
W_m are monic quadratics), without the lam term for oprl schemes (W = 1),
on integers scaled as the families are; no polynomial family is built.

The nodes are n sorted, pairwise distinct floats, or there is no rule:
`_polished_zeros` alone decides it, for `build_rule` and `real_zeros` alike.

Every node is a binary float, and each float the rule needs -- Newton step
P*_n/P*_n', weight M_0 Q*_n/P*_n' -- is the exact ratio at the node rounded
once by `poly.rounded_ratio`: from fixed-point enclosures of the polynomials
(`Poly.enclose`, 128 fraction bits, with a proven integer error bound) when
their corners round to one float, else from exact integer Horner
(`Poly.ratio_at`), at every degree.
`rounded_ratio` owns the enclosures: quadrature hands them on and never
looks inside one.  The only floating-point error in a rule is the node
rounding itself.

`build_rule` reads P*_n and Q*_n alone: `sequences.family_ends` iterates
both families once, over one list of step terms, and turns only those two
into Polys.  It forms P*_n' once, and the weight reuses the P*_n'(x)
enclosure of Newton's last step, which left x unchanged: the same exact
value, so the same rule.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from fractions import Fraction

from .errors import ComplexZerosError, DegeneracyError, IntegrandError
from .exact import GaussianRational, quotient
from .poly import rounded_ratio
from .schemes import Perturbation
from .sequences import clear, family_ends, iterate, scaled_steps

# scheme -> {n: M_0}, filled by build_rule; a scheme is immutable
_M0 = weakref.WeakKeyDictionary()


def _out_of_float_range(poly):
    return DegeneracyError("the zeros of P*_%d leave the float range: a coefficient, a "
                           "root or a Newton step is not finite" % poly.degree)


def _polish_failed(x):
    return DegeneracyError("root polish failed near x = %.17g" % x)


def _polished_zeros(poly, dpoly):
    """(zeros, dpoly's enclosure at each) of poly, of degree n >= 1 with a real
    leading coefficient, and its derivative dpoly.

    The zeros are n sorted, pairwise distinct floats, or this raises.  The
    seeds are the companion eigenvalues of 2^k P, its lead in [1, 2) and each
    coefficient rounded once (+-inf, refused, beyond the float range): numpy
    divides by the lead, where 2^k cancels.  A real matrix's real eigenvalues
    have imaginary part 0; ComplexZerosError lists the others, and is raised
    whenever a coefficient is not real: over a real lead that is a non-real
    ratio, which a product of real factors (z - x_j) cannot have, and the
    error names it when every seed is real.  lead(P*_n)
    is real, as L_{m+1} = rho_m L_m - lam*_m L_{m-1} with W_m monic (no lam
    term for oprl).  Newton polishes each seed's real part by steps
    P(x)/P'(x), each the exact ratio rounded once, to its fixed point, where a
    step leaves x unchanged; P'(x) = 0, 40 steps without one or two equal
    zeros raise DegeneracyError.  Each zero hands on the enclosure its last
    step read P'(x) from, so the weights need not enclose dpoly again.
    """
    import numpy as np   # only root finding needs it: other commands start without it

    if poly.degree < 1:
        raise ValueError("need a nonconstant polynomial")
    den = poly.denominator or 1     # None: the numerators are exact scalars, not ints
    top, bottom = abs(poly.numerators[-1].numerator), poly.numerators[-1].denominator * den
    k = bottom.bit_length() - top.bit_length()
    k += top << max(k, 0) < bottom << max(-k, 0)        # 2^k lead in [1, 2)
    up, down = max(k, 0), max(-k, 0)
    coeffs = [complex(a * Fraction(2) ** k) if isinstance(a, GaussianRational)
              else quotient(a.numerator << up, a.denominator * den << down)
              for a in reversed(poly.numerators)]
    try:    # inf never reaches numpy, whose complex division would warn on it
        raw = np.roots(coeffs) if np.isfinite(coeffs).all() else None
    except np.linalg.LinAlgError:   # eigvals did not converge
        raw = None
    if raw is None or not np.isfinite(raw).all():
        raise _out_of_float_range(poly)
    seeds = [complex(r) for r in raw]
    off_axis = [r for r in seeds if r.imag]
    if off_axis:
        raise ComplexZerosError(sorted(off_axis, key=lambda v: (v.real, v.imag)))
    if poly.denominator is None:
        j = next(j for j, a in enumerate(poly.numerators) if isinstance(a, GaussianRational))
        raise ComplexZerosError([], "the ratio of the x^%d coefficient to the real leading "
                                "coefficient is not real, so a zero is not real: no real "
                                "quadrature rule exists" % j)

    polished = []
    for x in (r.real for r in seeds):
        for _ in range(40):
            box = dpoly.enclose(x)
            try:
                step = rounded_ratio(1, poly, dpoly, x, box)
            except ZeroDivisionError:       # P'(x) = 0 exactly
                raise _polish_failed(x) from None
            x_new = x - step
            if not math.isfinite(x_new):
                raise _out_of_float_range(poly)
            if x_new == x:
                break
            x = x_new
        else:
            raise _polish_failed(x)
        polished.append((x_new, box))     # x_new == x, up to the sign of a zero
    polished.sort(key=lambda pair: pair[0])
    zeros = [x for x, _ in polished]
    if any(b <= a for a, b in zip(zeros, zeros[1:])):
        raise DegeneracyError("nodes must be strictly increasing")
    return zeros, [box for _, box in polished]


def real_zeros(poly):
    """The zeros of poly as n sorted, pairwise distinct floats, or an error.

    A non-real leading coefficient is divided out first; then the zeros are
    those of `build_rule`, with its errors (see `_polished_zeros`).
    """
    lead = poly.leading()
    if isinstance(lead, GaussianRational):
        poly = poly * (1 / lead)
    return _polished_zeros(poly, poly.derivative())[0]


def require_degree(poly, n):
    """poly, which must be P*_n of degree n; else DegeneracyError naming both.

    A co-dilation can cancel the leading coefficient of P*_n (k' = 1,
    nu = 12/5 at n = 6 leaves degree 4), and then no n-point rule exists.
    """
    if poly.degree != n:
        raise DegeneracyError(
            "the leading coefficient of P*_%d vanishes: it has degree %d, not %d"
            % (n, poly.degree, n))
    return poly


def calibrate_m0(scheme, n):
    """The mass constant M_0, exact.

    The raw weight sum is s_n = lead(Q_n)/lead(P_n); assuming
    the tail shape s_n = L - C/(n+1) (exact for the worked example, where
    s_n = 2n/(n+1)), the two-point fit L = (n+2) s_{n+1} - (n+1) s_n removes
    the tail and M_0 = 1/L.  Independent of n whenever the shape assumption
    holds.

    The leading coefficients of the unperturbed P_m (degree m) and Q_m
    (degree m-1) follow the recurrence loop on scalars,
    L_{m+1} = rho_m L_m - lam_m L_{m-1}, without the lam term for oprl
    (there W_m = 1 lowers the degree instead of keeping it).  It runs on
    integers, scaled as the families are (`sequences.scaled_steps`): step m
    by s_m, the lcm of the denominators of rho_m and lam_m, so V_m = D_m L_m
    with D_m the product of the scales before m.  Both kinds share D_m,
    which cancels from lead(Q_m)/lead(P_m) = V^Q_m / V^P_m, and M_0 is one
    Fraction.
    """
    if n < 1:
        raise ValueError("calibration needs n >= 1, got %d" % n)
    lam = scheme.lam if scheme.kind != "oprl" else (lambda m: 0)
    # the first-kind step 0 has no lam term
    a, b, _, (one_p, one_q) = scaled_steps(
        (clear(*scheme.rho(m).as_integer_ratio(),
               *(lam(m) if m else 0).as_integer_ratio()) for m in range(n + 1)),
        ("first", "second"), 0)
    lead_p = iterate(a.__getitem__, b.__getitem__, "first", n + 1, 0, one_p)
    lead_q = iterate(a.__getitem__, b.__getitem__, "second", n + 1, 0, one_q)
    for m in (n + 1, n):
        if lead_p[m] == 0 or lead_q[m] == 0:
            raise DegeneracyError("M_0 calibration failed: the leading coefficient of the "
                                  "unperturbed %s_%d vanishes" % ("Q" if lead_p[m] else "P", m))
    # M_0 = 1 / ((n + 2) lead_q[n+1]/lead_p[n+1] - (n + 1) lead_q[n]/lead_p[n])
    lead_sum = (n + 2) * lead_q[n + 1] * lead_p[n] - (n + 1) * lead_q[n] * lead_p[n + 1]
    if lead_sum == 0:
        raise DegeneracyError("calibration failed: extrapolated weight sum is zero")
    return Fraction(lead_p[n + 1] * lead_p[n], lead_sum)


def weights_moment_formula(scheme, perturbation, nodes, m0, p):
    """Weights by the moment formula at the given nodes (floats), each the exact
    value at the node rounded once; the exact reference the rule's weights are
    compared against.

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
        out.append(quotient(num * b * d, den * a * c))
    return out


def weights_second_kind(nodes, m0, q, dp, enclosures=None):
    """Weights M_0 Q_n/P_n' at the given nodes (floats), each the exact value
    at the node rounded once (`poly.rounded_ratio`); q is the perturbed Q_n
    and dp the perturbed P_n'.

    enclosures, when given, holds dp.enclose(x) for each node, as the polish
    leaves them.
    """
    m0 = Fraction(m0)
    out = []
    for j, (x, box) in enumerate(zip(nodes, enclosures or [None] * len(nodes))):
        try:
            out.append(rounded_ratio(m0, q, dp, x, box))
        except ZeroDivisionError:
            raise DegeneracyError(
                "P'_n vanished at node %d (node not simple?)" % j) from None
    return out


@dataclass(frozen=True)
class QuadratureRule:
    n: int
    nodes: tuple
    weights: tuple
    perturbation: object
    m0: Fraction

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.nodes, self.nodes[1:])):
            raise DegeneracyError("nodes must be strictly increasing")


def build_rule(scheme, perturbation, n):
    """Construct the n-point rule: the perturbed zeros, weighed by M_0 Q*_n/P*_n'.

    M_0 is the scheme's calibrated mass constant, `calibrate_m0(scheme, n)`;
    `weights_second_kind` weighs nodes by any other M_0.  Raises
    ComplexZerosError when the perturbed polynomial leaves the real line
    (the rule does not exist), DegeneracyError when P*_n has degree below n,
    two of its zeros coincide or a weight denominator vanishes.
    """
    if n < 1:
        raise ValueError("a rule needs n >= 1 nodes, got %d" % n)
    pert = perturbation or Perturbation.none()
    p, q = family_ends(scheme, pert, n)
    dp = require_degree(p, n).derivative()
    nodes, slopes = _polished_zeros(p, dp)
    known = _M0.setdefault(scheme, {})
    if n not in known:      # a refusal is not kept: it is raised again
        known[n] = calibrate_m0(scheme, n)
    weights = weights_second_kind(nodes, known[n], q, dp, slopes)
    return QuadratureRule(n=n, nodes=tuple(nodes), weights=tuple(weights),
                          perturbation=pert, m0=known[n])


def estimate(rule, f):
    """sum_j w_j f(x_j) with compensated summation.

    An integrand f that fails, or is complex or not finite, at a node raises
    IntegrandError naming the node.
    """
    terms = []
    for j, (x, w) in enumerate(zip(rule.nodes, rule.weights)):
        try:
            value = f(x)
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise IntegrandError("integrand cannot be evaluated at node %d (x = %.17g): %s"
                                 % (j + 1, x, exc)) from exc
        if isinstance(value, complex):   # e.g. x^x at a negative node
            raise IntegrandError("integrand is complex at node %d (x = %.17g)" % (j + 1, x))
        if not math.isfinite(value):
            raise IntegrandError("integrand is not finite at node %d (x = %.17g)" % (j + 1, x))
        terms.append(w * value)
    return math.fsum(terms)


def exactness_check(scheme, n, p_degree):
    """Worst |rule - oracle| over f = x^m/(x^2+1)^n, m = 0..p_degree.

    The oracle integrates x^m / (x^2+1)^n against the worked example's
    density 1/(pi (1+x^2)) adaptively over the whole line; the rule is
    exact (to rounding) there through m = 2n-1.
    """
    from scipy.integrate import quad

    rule = build_rule(scheme, None, n)
    worst = 0.0
    for m in range(p_degree + 1):
        def f(x, _m=m):
            return x ** _m / (x * x + 1.0) ** n

        def weighted(x, _m=m):   # f times the density 1/(pi (1+x^2))
            return x ** _m * (1.0 / (math.pi * (1.0 + x * x))) / (x * x + 1.0) ** n

        rule_value = estimate(rule, f)
        oracle, _err = quad(weighted, -math.inf, math.inf, epsabs=1e-13, epsrel=1e-13,
                            limit=300)
        worst = max(worst, abs(rule_value - oracle))
    return worst
