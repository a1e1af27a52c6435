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

M_0 is calibrated without any floating point: the raw weights (m0 = 1) sum
to lead(Q_n)/lead(P_n) exactly (a residue identity), and a two-point fit in
n removes its C/(n+1) tail.  For the worked example this yields exactly 1/2
at every n, and the weights sum to n/(n+1): total mass is approached, not
hit, at finite n.

M_0 needs only leading coefficients, so it runs the recurrence loop
(`sequences.iterate`) on scalars: L_{m+1} = rho_m L_m - lam_m L_{m-1} (the
W_m are monic quadratics), without the lam term for oprl schemes (W = 1),
on integers scaled as the families are; no polynomial family is built.

Every node is a binary float, and each float the rule needs -- Newton
residual and slope, residual gate, weight -- is the correctly rounded value of
the exact expression at the node.  It comes from fixed-point enclosures of
the polynomials (`Poly.enclose`, 128 fraction bits, with a proven error bound)
whenever their ends round to one float, and from exact integer Horner
(`Poly.ratio_at`) otherwise, and always below degree 11, where exact Horner
is as cheap.  A weight is monotone in Q*_n(x) and in P*_n'(x) over
enclosures where P*_n' keeps its sign, so its enclosure is spanned by the
four corner quotients.  The only floating-point error in a rule is the node
rounding itself.

`build_rule` reads P*_n and Q*_n alone: `sequences.family_ends` iterates
both families once, over one list of step terms, and turns only those two
into Polys.  It forms P*_n' once.  Newton reads the residual gate's P*_n(x)
and the weight's P*_n'(x) enclosure from its own last step when that step
left x unchanged, which most do; they are the same exact values, so the
rule is the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ComplexZerosError, DegeneracyError, IntegrandError
from .exact import GaussianRational, common_rounding, quotient, simplify_scalar
from .schemes import Perturbation
from .sequences import clear, family_ends, iterate, scaled_steps

# A root with |Im| <= TOL_IMAG * (1 + |Re|) counts as real.
TOL_IMAG = 1e-9


def _enclosed_ratio(m0, top, bottom, x, b=None):
    """m0 * top(x) / bottom(x), rounded once, when the enclosures of top(x) and
    bottom(x) prove the rounding; else None.  b, when given, is bottom.enclose(x).

    The quotient is monotone in each factor over enclosures where bottom(x)
    excludes 0, so its range is spanned by the corner quotients.
    """
    t = top.enclose(x)
    if t is None:
        return None
    if b is None:
        b = bottom.enclose(x)
    if b is None or b[0] <= 0 <= b[1]:
        return None
    return common_rounding([(m0.numerator * u * b[2], m0.denominator * t[2] * v)
                            for u in t[:2] for v in b[:2]])


def _has_nonreal_ratio(poly):
    """Whether some coefficient / leading coefficient is not real.

    P = lead * prod (z - x_j) with every x_j real has real ratios, so a
    non-real one proves a non-real zero, whatever the float roots show.
    """
    lead = poly.leading()
    return any(isinstance(simplify_scalar(c / lead), GaussianRational)
               for c in poly.coeffs)


def _out_of_float_range(poly):
    return DegeneracyError("the zeros of P*_%d leave the float range: a coefficient, a "
                           "root or a Newton step is not finite" % poly.degree)


def _polished_zeros(poly, dpoly, tol_imag):
    """(sorted zeros, dpoly's enclosure at each or None): see real_zeros.

    A zero's enclosure is the one its last Newton slope was read from, when
    that step left x unchanged, so the weights need not enclose dpoly again.
    """
    import numpy as np   # only root finding needs it: other commands start without it

    if poly.degree < 1:
        raise ValueError("need a nonconstant polynomial")
    try:
        coeffs = poly.float_coeffs()
        raw = np.roots(coeffs[::-1])
        finite = np.isfinite(raw).all()
    except OverflowError:       # a coefficient beyond the float range
        finite = False
    if not finite:
        raise _out_of_float_range(poly)
    complex_pairs = []
    accepted = []
    near_real = []       # accepted roots with a tiny nonzero Im part
    for r in raw:
        r = complex(r)
        if abs(r.imag) > tol_imag * (1.0 + abs(r.real)):
            complex_pairs.append(r)
        else:
            accepted.append(r.real)
            if r.imag != 0.0:
                near_real.append(r)
    if complex_pairs:
        raise ComplexZerosError(sorted(complex_pairs, key=lambda v: (v.real, v.imag)))
    if any(isinstance(c, complex) for c in coeffs) and _has_nonreal_ratio(poly):
        raise ComplexZerosError(sorted(near_real, key=lambda v: (v.real, v.imag)))

    magnitudes = [abs(c) for c in coeffs]
    polished = []
    for x in accepted:
        for _ in range(40):
            # residual and box are read at `at`, the x of this iteration
            residual, at, box = poly(x), x, None
            if residual == 0.0:
                break
            slope, box = dpoly.value_and_enclosure(x)
            if slope == 0.0:
                break
            step = residual / slope
            x_new = x - step
            if not math.isfinite(x_new):
                raise _out_of_float_range(poly)
            # near 0 a step that is large next to x_new has not converged
            if abs(x_new - x) <= min(1e-16 * (1.0 + abs(x)), 0.5 * abs(x_new)):
                x = x_new
                break
            x = x_new
        if x != at:         # the last step moved x
            residual, box = poly(x), None
        scale = 0.0
        for m in reversed(magnitudes):
            scale = scale * abs(x) + m
        if abs(residual) > 1e-13 * max(scale, 1e-300):
            raise DegeneracyError(
                "root polish failed near x = %.17g (residual above tolerance)" % x)
        polished.append((x, box))
    polished.sort(key=lambda pair: pair[0])
    return [x for x, _ in polished], [box for _, box in polished]


def real_zeros(poly, tol_imag=TOL_IMAG):
    """Sorted real zeros via companion eigenvalues + exact-coefficient Newton.

    Roots with |Im| <= tol_imag * (1 + |Re|) are accepted as real and
    polished; anything farther off the axis raises ComplexZerosError listing
    the pairs.  tol_imag must be finite and >= 0.
    """
    if not (math.isfinite(tol_imag) and tol_imag >= 0):
        raise ValueError("the imaginary-part tolerance must be finite and >= 0, got %r"
                         % (tol_imag,))
    return _polished_zeros(poly, poly.derivative(), tol_imag)[0]


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
            raise DegeneracyError("degenerate leading coefficient at index %d" % m)
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
    at the node rounded once; q is the perturbed Q_n and dp the perturbed P_n'.

    enclosures, when given, holds dp.enclose(x) or None for each node, as the
    polish leaves them; a None entry is enclosed here.
    """
    m0 = Fraction(m0)
    out = []
    for j, (x, box) in enumerate(zip(nodes, enclosures or [None] * len(nodes))):
        weight = _enclosed_ratio(m0, q, dp, x, box)
        if weight is None:
            a, b = dp.ratio_at(x)
            if a == 0:
                raise DegeneracyError("P'_n vanished at node %d (node not simple?)" % j)
            c, d = q.ratio_at(x)
            weight = quotient(m0.numerator * c * b, m0.denominator * d * a)
        out.append(weight)
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


def build_rule(scheme, perturbation, n, m0=None):
    """Construct the n-point rule: the perturbed zeros, weighed by M_0 Q*_n/P*_n'.

    m0 defaults to the calibrated mass constant; m0=1 gives the raw ratios.
    Raises ComplexZerosError when the perturbed polynomial leaves the real
    line (the rule does not exist), DegeneracyError when P*_n has degree
    below n or a weight denominator vanishes.
    """
    if n < 1:
        raise ValueError("a rule needs n >= 1 nodes, got %d" % n)
    pert = perturbation or Perturbation.none()
    p, q = family_ends(scheme, pert, n)
    dp = require_degree(p, n).derivative()
    nodes, slopes = _polished_zeros(p, dp, TOL_IMAG)
    if m0 is None:
        m0 = calibrate_m0(scheme, n)
    weights = weights_second_kind(nodes, m0, q, dp, slopes)
    return QuadratureRule(
        n=n, nodes=tuple(nodes), weights=tuple(weights), perturbation=pert,
        m0=Fraction(m0),
    )


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
