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

M_0 and the pencil's definiteness both read one exact chain of leading
coefficients (`_leads`): L_{m+1} = rho_m L_m - lam*_m L_{m-1} (the W_m are
monic quadratics), without the lam term for oprl schemes (W = 1), run by
`sequences.iterate` on integers; no polynomial family is built.

The nodes are n sorted, pairwise distinct floats, or there is no rule:
`_polished_zeros`, the one Newton loop, alone decides it, for `build_rule`,
`perturbed_zeros` and `real_zeros` alike; its callers choose the seeds.
P*_n is the determinant of a tridiagonal pencil zB - A; where every L_m > 0
it is Hermitian-definite (`_pencil_seeds`), and its eigenvalues, all real,
seed the rule's Newton.  Elsewhere, and where their polish fails, the seeds
are those of P*_n's Sturm chain (`_sturm_seeds`), which refuses exactly when
a zero is not real or simple; `real_zeros` has only the polynomial, so only
those.  The n seeds also give Newton's first step: P*_n(s_j) over the slope
S_j = lead(P*_n) prod_{i != j} (s_j - s_i) that P*_n' would have there if
the seeds were its zeros (Weierstrass's correction), with no enclosure of
P*_n'.  It is taken only where P*_n(s_j)'s enclosure fixes it to 20 bits
and S_j is a finite, nonzero float; else the first step is exact.  Every
later step is exact, and the last one, which leaves x unchanged, decides
the node: the seed step moves where Newton starts, never what it accepts.

Every node is a binary float, and each float the rule needs -- exact Newton
step P*_n/P*_n', weight M_0 Q*_n/P*_n' -- is the exact ratio at the node rounded
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

A symmetric rule is built from half its nodes.  Where every c*_m is 0 and
every W_m is even (special and oprl schemes, general ones with nodes
(a_m, -a_m)), P*_n(-x) = (-1)^n P*_n(x) and Q*_n has the parity of n - 1.
A co-dilation (lambda_kp -> nu lambda_kp) keeps that, so the worked
example's co-dilated rules are symmetric; a co-recursion (c_k -> c_k + mu)
breaks it.  For an even or odd P*_n, judged from its exact numerators
(`_parity`), the Newton map x -> x - RN(P(x)/P'(x)) is odd: the exact
ratio is odd, and rounding to nearest and float negation are symmetric.  So
the negative of a fixed point is a fixed point of the same loop, and
`_symmetric_zeros` polishes only the upper ceil(n/2) of the sorted seeds
(the seed slopes still read all n) and reflects them, provided the
smallest is +0.0 for odd n or positive for even n; else it polishes all n,
so no refusal is added.  When Q*_n has the parity of n - 1 too,
w(-x) = M_0 Q*_n(-x)/P*_n'(-x) = w(x) exactly, and `build_rule` weighs the
upper half alone.  The enclosures of an even or odd polynomial run Horner
in x^2 over half its coefficients (`Poly.enclose`).
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
from .sequences import family_ends, iterate, step_ratios

# scheme -> {n: M_0}, filled by build_rule; a scheme is immutable
_M0 = weakref.WeakKeyDictionary()


def _out_of_float_range(poly):
    return DegeneracyError("the zeros of P*_%d leave the float range: a coefficient, a "
                           "root or a Newton step is not finite" % poly.degree)


def _polish_failed(x):
    return DegeneracyError("root polish failed near x = %.17g" % x)


def _leads(scheme, pert, n, kinds):
    """(V, D), n >= 1: V_0..V_n of each kind in kinds and D_0..D_n, ints with
    V_m = D_m L_m, D_m > 0 and L_m the leading coefficient of P*_m (first
    kind) or Q*_m (second kind, its z^(m-1) coefficient): the one exact chain
    L_{m+1} = rho_m L_m - lam*_m L_{m-1} (W_m is monic; oprl, W_m = 1, drops
    the lam term, and step 0 has none).  Step m is scaled by
    s_m = den(rho_m) den(lam*_m), and D_m is the product of the scales before m.
    rho_m and lam*_m are the integer ratios of the scheme's step table
    (`sequences.step_ratios`).
    """
    if scheme.kind == "oprl":
        [rho], lam = step_ratios(scheme, pert, n, ("rho",)), [(0, 1)] * n
    else:
        rho, lam = step_ratios(scheme, pert, n, ("rho", "lam"))
    a, b, dens, s = [], [], [1], 1
    for (rn, rd), (ln, ld) in zip(rho, lam):
        b.append(ln * rd * s)       # s_m s_{m-1} lam*_m, s still s_{m-1}
        s = rd * ld
        a.append(rn * ld)           # s_m rho_m
        dens.append(dens[-1] * s)
    return [iterate(a.__getitem__, b.__getitem__, kind, n, 0,
                    dens[1] if kind == "second" else 1) for kind in kinds], dens


def _pencil_seeds(scheme, pert, n):
    """The n eigenvalues of the pencil zB - A whose determinant is P*_n, as
    sorted floats, or None when the pencil is not Hermitian-definite.

    B and A are tridiagonal: B has rho_m on its diagonal and sqrt(lam*_m)
    beside it (diag(rho_m) for oprl); A has rho_m c*_m on its diagonal and
    +-i omega sqrt(lam*_m) beside it (-sqrt(lam*_m) for oprl).  So zB - A
    has rho_m (z - c*_m) on its diagonal and off-diagonal products
    lam*_m (z^2 + omega^2) (lam*_m for oprl), and its leading minors follow
    the recurrence: det(zB - A) = P*_n (Zhedanov 1999 for R_II,
    Golub-Welsch 1969 for oprl).  Each rho_m, c*_m and lam*_m is its integer
    ratio in the scheme's step table (`sequences.step_ratios`) rounded once.
    The general kind, a lam*_m <= 0 and an entry beyond the float range
    give None.

    B = L L^T with L lower bidiagonal, diagonal l_k and g_{k-1} below it.
    The pivots l_k^2 are L_{k+1}/L_k (`_leads`), each rounded once, so B is
    definite exactly when every L_m > 0, which a co-recursion, changing A
    alone, cannot alter; else, or when a pivot is below the float range,
    this gives None.  A definite pencil's eigenvalues are real, and simple
    as zB - A is unreduced at each.  They are those of the Hermitian
    C = L^-1 A L^-H.  Forward substitution gives the rows of L^-1 as
    r_k = e_k / l_k - h_k r_{k-1}, h_k = g_{k-1} / l_k, and as A is
    tridiagonal, C_kk = r_k A r_k^H and C_kj = r_k A r_j^H follow three
    recurrences:

        C_kk      = h_k^2 C_{k-1,k-1} + A_kk / l_k^2,
        C_{k,k-1} = -h_k C_{k-1,k-1} + A_{k,k-1} / (l_k l_{k-1}),
        C_kj      = -h_k C_{k-1,j}   (j < k - 1).

    (C_kk loses its term in h_k Re A_{k-1,k}: that entry is imaginary for
    the special form, and h_k = 0 for oprl.)  So each column of C below its
    subdiagonal is a running product, with no cancellation, which one
    cumprod forms; eigvalsh reads only that lower triangle.  No inverse and
    no matrix product is formed.
    """
    import numpy as np

    if n < 1 or scheme.kind == "general":
        return None
    (lead,), dens = _leads(scheme, pert, n, ("first",))
    if min(lead) <= 0:
        return None
    special = scheme.kind == "special"
    # each coefficient rounded once, +-inf beyond the float range
    rho, center, lam = ([quotient(p, q) for p, q in ratios]
                        for ratios in step_ratios(scheme, pert, n))
    del lam[0]      # lambda_0: no step reads it
    if not (all(v > 0 for v in lam) and all(map(math.isfinite, rho + center + lam))):
        return None
    try:
        omega = float(scheme.omega) if special else 0.0
        pivot = [quotient(lead[k + 1] * dens[k], lead[k] * dens[k + 1]) for k in range(n)]
        l = [math.sqrt(d) for d in pivot]
        diag, sub, minus_h = [center[0]], [], [0.0]
        for k in range(1, n):
            root = math.sqrt(lam[k - 1])
            h = root / l[k - 1] / l[k] if special else 0.0
            below = -1j * omega * root if special else -root      # A_{k,k-1}
            sub.append(below / (l[k] * l[k - 1]) - h * diag[-1])
            diag.append(h * h * diag[-1] + rho[k] * center[k] / pivot[k])
            minus_h.append(-h)
    except (OverflowError, ZeroDivisionError):     # beyond the float range, or below
        return None
    c = np.where(np.tri(n, n, -2, dtype=bool), np.array(minus_h)[:, None],
                 1 + 0j if special else 1.0)
    c.flat[n::n + 1] = sub
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan: no seeds
        c = np.cumprod(c, axis=0)
    c.flat[::n + 1] = diag
    if not np.isfinite(c).all():
        return None
    try:
        seeds = np.linalg.eigvalsh(c)
    except np.linalg.LinAlgError:   # did not converge
        return None
    return seeds.tolist() if np.isfinite(seeds).all() else None


def _polished_zeros(poly, dpoly, seeds, first=0):
    """(zeros, dpoly's enclosure at each) of poly, of degree n >= 1 with a real
    leading coefficient, and its derivative dpoly: the one Newton loop.

    The zeros are n - first sorted, pairwise distinct floats, or this raises.
    Newton starts from seeds[first:], seeds being n floats the caller
    chooses, and the slopes read all n.  Its first step at a
    seed s_j is P(s_j)/S_j: P(s_j) the midpoint of its enclosure and S_j
    the slope the seeds give (`_seed_slopes`), so no enclosure of P'.  It
    is taken only where that enclosure fixes P(s_j) to 20 bits and S_j is a
    finite, nonzero float; elsewhere the first step is exact too.  Then
    Newton steps P(x)/P'(x), each the exact ratio rounded once, to the
    fixed point, where a step leaves x unchanged: that step is always
    exact, so the seed step moves where Newton starts, not which float it
    accepts.  P'(x) = 0, 40 exact steps without a fixed point or two equal
    zeros raise DegeneracyError.  Each zero hands on the enclosure its last
    step read P'(x) from, so the weights need not enclose dpoly again, and
    where the seed step leaves x unchanged, the first exact step reuses its
    enclosure of P(x).
    """
    polished = []
    for x, slope in zip(seeds[first:], _seed_slopes(poly, seeds)[first:]):
        top = None          # poly's enclosure at x, while x is the seed
        if math.isfinite(slope) and slope:
            top = lo, hi, den = poly.enclose(x)
            if (hi - lo) << 21 <= abs(lo + hi):     # width <= 2^-20 |P(x)|
                x_new = x - quotient(lo + hi, 2 * den) / slope
                if math.isfinite(x_new):
                    if x_new != x:
                        top = None
                    x = x_new
        for _ in range(40):
            box = dpoly.enclose(x)
            try:
                step = rounded_ratio(1, poly, dpoly, x, box, top)
            except ZeroDivisionError:       # P'(x) = 0 exactly
                raise _polish_failed(x) from None
            x_new = x - step
            if not math.isfinite(x_new):
                raise _out_of_float_range(poly)
            if x_new == x:
                break
            x, top = x_new, None
        else:
            raise _polish_failed(x)
        polished.append((x_new, box))     # x_new == x, up to the sign of a zero
    polished.sort(key=lambda pair: pair[0])
    zeros = [x for x, _ in polished]
    if any(b <= a for a, b in zip(zeros, zeros[1:])):
        raise DegeneracyError("nodes must be strictly increasing")
    return zeros, [box for _, box in polished]


def _seed_slopes(poly, seeds):
    """S_j = lead(P) prod_{i != j} (s_j - s_i) at each seed s_j, a list of
    floats: P'(s_j) if the seeds were the zeros, as Weierstrass's correction
    reads it.  Where a product leaves the float range, or lead(P) does, S_j
    is inf, nan or 0."""
    import numpy as np

    lead = quotient(*poly.leading().as_integer_ratio())     # +-inf beyond the float range
    s = np.array(seeds, dtype=float)
    apart = s[:, None] - s
    np.fill_diagonal(apart, 1.0)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        return (lead * np.prod(apart, axis=1)).tolist()


def _sturm_seeds(poly):
    """The zeros of poly (degree n >= 1, real lead) as n sorted floats from its
    Sturm chain, or an exact refusal.

    A non-real coefficient over the real lead is a non-real ratio, which no
    product of real factors (z - x_j) has.  Else the primitive integer
    pseudo-remainders from a = P, b = P' (Collins 1967), each c in
    |lc b|^2 a = (q_1 x + q_0) b - g c with g > 0 following b, drop the degree
    by one with lead(P)'s sign down to a constant iff the n zeros are real and
    simple (Sturm).  Then they are the eigenvalues of the chain's Jacobi
    matrix (Wall 1948): the centers -q_0/q_1 on its diagonal and
    sqrt(g lc(c)/(lc(b)^2 lc(a))) beside it.  A zero remainder before a
    constant is gcd(P, P') != 1: a repeated zero.
    """
    import numpy as np   # only root finding needs it: other commands start without it

    if poly.denominator is None:    # the numerators are exact scalars, not ints
        j = next(j for j, a in enumerate(poly.numerators) if isinstance(a, GaussianRational))
        raise ComplexZerosError("the ratio of the x^%d coefficient to the real leading "
                                "coefficient is not real, so a zero is not real: no real "
                                "quadrature rule exists" % j)
    if poly.degree < 1:
        raise ValueError("need a nonconstant polynomial")
    a = list(poly.numerators)
    b = [j * u for j, u in enumerate(a)][1:]
    diag, beside = [], []
    try:
        while True:
            lb, la = b[-1], a[-1]           # both of lead(P)'s sign
            t = [lb * u - la * v for u, v in zip(a, [0] + b)][:-1]     # lb a - la x b
            r = [lb * u - t[-1] * v for u, v in zip(t, b)][:-1]       # lb t - q_0 b
            diag.append(-t[-1] / (lb * la))          # q_1 = lb la
            if not r:       # b is a constant: the chain is complete
                break
            if not any(r):
                raise DegeneracyError("P*_%d has a repeated zero: two nodes coincide"
                                      % poly.degree)
            if r[-1] == 0 or (r[-1] < 0) != (la > 0):
                raise ComplexZerosError("P*_%d has complex zeros: no real quadrature rule "
                                        "exists" % poly.degree)
            g = math.gcd(*r)
            b, a = [-u // g for u in r], b
            square = Fraction(g * abs(b[-1]), lb * lb * abs(la))    # may pass 1e308
            half = (square.numerator.bit_length() - square.denominator.bit_length()) // 2
            beside.append(math.ldexp(math.sqrt(square / Fraction(4) ** half), half))
    except OverflowError:
        raise _out_of_float_range(poly) from None
    seeds = np.linalg.eigvalsh(np.diag(diag) + np.diag(beside, -1))
    if not np.isfinite(seeds).all():
        raise _out_of_float_range(poly)
    return seeds.tolist()


def _parity(poly):
    """degree % 2 when the rational poly is even or odd, else None."""
    odd = poly.degree & 1
    return None if any(poly.numerators[1 - odd::2]) else odd


def _symmetric_zeros(poly, dpoly, seeds):
    """`_polished_zeros` of poly from n sorted seeds, and from the upper half
    alone when poly is even or odd; then the lower half is those zeros
    reflected, and None stands for their enclosures of dpoly.

    The half is kept only when it is ceil(n/2) zeros that reflect to n
    distinct ones: the smallest is +0.0 for odd n, positive for even n.
    Else, and where the half's polish fails, all n seeds are polished, so
    the half adds no refusal.
    """
    n = len(seeds)
    if _parity(poly) is not None:
        try:
            upper, boxes = _polished_zeros(poly, dpoly, seeds, n // 2)
        except DegeneracyError:
            upper = None
        # odd n: the middle zero is +0.0; even n: every zero is positive
        if upper and (upper[0] == 0 and math.copysign(1.0, upper[0]) > 0 if n & 1
                      else upper[0] > 0):
            return [-x for x in reversed(upper[n & 1:])] + upper, [None] * (n // 2) + boxes
    return _polished_zeros(poly, dpoly, seeds)


def _zeros(poly, dpoly, scheme, pert):
    """`_symmetric_zeros` of P*_n = poly from the pencil's seeds, and from the
    Sturm chain's where there are none or their polish fails."""
    seeds = _pencil_seeds(scheme, pert, poly.degree)
    if seeds is not None:
        try:
            return _symmetric_zeros(poly, dpoly, seeds)
        except DegeneracyError:     # e.g. a graded pencil: its seeds can be far off
            pass
    return _symmetric_zeros(poly, dpoly, _sturm_seeds(poly))


def real_zeros(poly):
    """The zeros of poly as n sorted, pairwise distinct floats, or an error.

    A non-real leading coefficient is divided out first; then the zeros are
    found from the Sturm chain's seeds (`_sturm_seeds`), with its refusals.
    """
    lead = poly.leading()
    if isinstance(lead, GaussianRational):
        poly = poly * (1 / lead)
    return _symmetric_zeros(poly, poly.derivative(), _sturm_seeds(poly))[0]


def perturbed_zeros(scheme, perturbation, n):
    """The zeros of P*_n as n sorted, pairwise distinct floats: the nodes of
    `build_rule`, from the same seeds, or its error."""
    pert = perturbation or Perturbation.none()
    p = require_degree(family_ends(scheme, pert, n, ("first",))[0], n)
    return _zeros(p, p.derivative(), scheme, pert)[0]


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
    (degree m-1) are the exact chain `_leads`, V_m = D_m L_m.  Both kinds
    share D_m, which cancels from lead(Q_m)/lead(P_m) = V^Q_m / V^P_m, and
    M_0 is one Fraction.
    """
    if n < 1:
        raise ValueError("calibration needs n >= 1, got %d" % n)
    (lead_p, lead_q), _ = _leads(scheme, Perturbation.none(), n + 1, ("first", "second"))
    for m in (n + 1, n):
        if lead_p[m] == 0 or lead_q[m] == 0:
            raise DegeneracyError("M_0 cannot be calibrated: the leading coefficient of the "
                                  "unperturbed %s_%d vanishes" % ("Q" if lead_p[m] else "P", m))
    # M_0 = 1 / ((n + 2) lead_q[n+1]/lead_p[n+1] - (n + 1) lead_q[n]/lead_p[n])
    lead_sum = (n + 2) * lead_q[n + 1] * lead_p[n] - (n + 1) * lead_q[n] * lead_p[n + 1]
    if lead_sum == 0:
        raise DegeneracyError("M_0 cannot be calibrated: the extrapolated weight sum is zero")
    return Fraction(lead_p[n + 1] * lead_p[n], lead_sum)


def weights_moment_formula(scheme, perturbation, nodes, m0, p):
    """Weights by the moment formula at the given nodes (floats), each the exact
    value at the node rounded once; the exact reference the rule's weights are
    compared against.

    p is the perturbed first-kind family through P_n (n = len(nodes)).

    Only tests call it, and it stays: it is the independent exact reference
    `tests/test_quadrature.py` checks the second-kind weights against, and
    `bench/tracing.py` wraps it by name for the benchmark's weight metrics.
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
    leaves them, or None where a node has none; any other count raises
    ValueError.
    """
    m0 = Fraction(m0)
    out = []
    for j, (x, box) in enumerate(zip(nodes, enclosures or [None] * len(nodes), strict=True)):
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
        if not len(self.nodes) == len(self.weights) == self.n:
            raise ValueError("an n = %d rule needs n nodes and n weights, got %d and %d"
                             % (self.n, len(self.nodes), len(self.weights)))
        if any(b <= a for a, b in zip(self.nodes, self.nodes[1:])):
            raise DegeneracyError("nodes must be strictly increasing")


def build_rule(scheme, perturbation, n):
    """Construct the n-point rule: the perturbed zeros, weighed by M_0 Q*_n/P*_n'.

    M_0 is the scheme's calibrated mass constant, `calibrate_m0(scheme, n)`;
    `weights_second_kind` weighs nodes by any other M_0.  Raises
    ComplexZerosError when the perturbed polynomial leaves the real line
    (the rule does not exist), DegeneracyError when P*_n has degree below n,
    two of its zeros coincide or a weight denominator vanishes, or M_0
    cannot be calibrated (the message then says that the nodes exist).
    """
    if n < 1:
        raise ValueError("a rule needs n >= 1 nodes, got %d" % n)
    pert = perturbation or Perturbation.none()
    p, q = family_ends(scheme, pert, n)
    dp = require_degree(p, n).derivative()
    nodes, boxes = _zeros(p, dp, scheme, pert)
    known = _M0.setdefault(scheme, {})
    if n not in known:      # a refusal is not kept: it is raised again
        try:
            known[n] = calibrate_m0(scheme, n)
        except DegeneracyError as exc:
            raise DegeneracyError("the %d-point rule's nodes exist, but %s" % (n, exc)) from None
    lower = boxes.count(None)       # the nodes reflected from the upper half
    if lower and _parity(q) == (n - 1) & 1:
        # w(-x) = M_0 Q*_n(-x)/P*_n'(-x) = w(x) exactly
        upper = weights_second_kind(nodes[lower:], known[n], q, dp, boxes[lower:])
        weights = upper[n & 1:][::-1] + upper
    else:
        weights = weights_second_kind(nodes, known[n], q, dp, boxes)
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


def _cauchy_moment(n, m):
    """(1/pi) int x^m (1+x^2)^(-n-1) dx over the line, exactly, for 0 <= m <= 2n.

    The moment of x^m/(x^2+1)^n under the worked example's density
    1/(pi (1+x^2)).  Odd m give 0.  For m = 2a, b = n - a it is the Beta
    integral B(a+1/2, b+1/2)/pi = Gamma(a+1/2) Gamma(b+1/2) / (pi n!), and
    Gamma(a+1/2) = (2a)! sqrt(pi) / (4^a a!) makes it the Fraction
    (2a)! (2b)! / (4^n a! b! n!).
    """
    a, odd = divmod(m, 2)
    if odd:
        return Fraction(0)
    b = n - a
    f = math.factorial
    return Fraction(f(2 * a) * f(2 * b), 4 ** n * f(a) * f(b) * f(n))


def exactness_check(scheme, n, p_degree):
    """Worst |rule - exact moment| over f = x^m/(x^2+1)^n, m = 0..p_degree.

    The exact value is `_cauchy_moment(n, m)`, f integrated against the
    worked example's density 1/(pi (1+x^2)); the rule is exact (to rounding)
    there through m = 2n-1.  The integral diverges for m > 2n, so a
    p_degree outside 0..2n raises ValueError.
    """
    if not 0 <= p_degree <= 2 * n:
        raise ValueError("p_degree must lie in 0..2n = 0..%d, got %r: the moment of "
                         "x^m/(x^2+1)^n diverges for m > 2n" % (2 * n, p_degree))
    rule = build_rule(scheme, None, n)
    return max(abs(estimate(rule, lambda x: x ** m / (x * x + 1.0) ** n)
                   - _cauchy_moment(n, m))
               for m in range(p_degree + 1))
