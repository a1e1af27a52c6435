"""Density approximations built from quadrature nodes and weights.

An n-point rule pins the unknown density only at its nodes; between them we
interpolate, either globally (Lagrange, one degree-(n-1) polynomial, computed
exactly, so knot interpolation is literally exact) or locally (natural cubic
spline: second derivative zero at both end knots).  Outside the node range
the Lagrange polynomial extrapolates and the spline continues its boundary
cubic; sampled points out there carry a flag.

The Lagrange polynomial is built on integers from one product polynomial
(see `lagrange_density`), and its float samples are correctly rounded calls
of the `Poly`.  Float nodes have denominators up to 2^1074, so its common
denominator is wide (about 9,350 bits at n = 20); `Poly.enclose`, which
every float call of a rational `Poly` runs, truncates such coefficients to a
narrow fixed point, so a sample costs about as much as one of a rule
polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .poly import Poly

LAGRANGE = "lagrange"
SPLINE = "spline"

EXTRAPOLATED = "extrapolated"


def cauchy_density(x):
    """The worked scheme's own density, 1/(pi (1 + x^2)); handy as an oracle."""
    return 1.0 / (math.pi * (1.0 + x * x))


@dataclass(frozen=True, eq=False)
class DensityApprox:
    kind: str
    nodes: tuple   # strictly increasing floats
    values: tuple
    poly: Poly = None       # Lagrange representation
    spline: object = None   # scipy CubicSpline (natural)

    def __call__(self, x):
        if self.kind == LAGRANGE:
            # exact rational evaluation: knots reproduce their values exactly
            return self.poly(x)
        return float(self.spline(x))

    def flag(self, x):
        return EXTRAPOLATED if (x < self.nodes[0] or x > self.nodes[-1]) else ""


def _exact(v):
    """v as a Fraction; a non-finite float raises ValueError."""
    try:
        return Fraction(v)
    except (OverflowError, ValueError):
        raise ValueError("nodes and values must be finite numbers, got %r" % (v,)) from None


def _checked_points(nodes, values, minimum):
    """The (node, value) pairs as Fractions, sorted by node; ValueError on a
    count mismatch, too few nodes, a non-finite entry or a duplicate node."""
    if len(nodes) != len(values):
        raise ValueError("need one value per node")
    if len(nodes) < minimum:
        raise ValueError("need at least %d nodes" % minimum)
    pts = sorted(zip([_exact(x) for x in nodes], [_exact(v) for v in values]))
    for (x0, _), (x1, _) in zip(pts, pts[1:]):
        if x0 == x1:
            raise ValueError("duplicate node at x = %s" % x0)
    return pts


def lagrange_density(nodes, weights):
    """The degree-(n-1) interpolant through (node_j, weight_j), exact.

    Built on integers: with D the lcm of the node denominators, the nodes
    scale to integers X_j = D x_j, and the interpolant in y = D x is
        L(y) = sum_j v_j N_j(y) / N_j(X_j),   N_j(y) = N(y) / (y - X_j),
    where N(y) = prod_k (y - X_k) is formed once and each N_j is one synthetic
    division of it.  The terms share one common denominator, and coefficient
    i times D^i turns L(y) into the polynomial in x, reduced by one gcd.  The
    result is independent of the input ordering.
    """
    pts = _checked_points(nodes, weights, 1)
    scale = math.lcm(*[x.denominator for x, _ in pts])
    xs = [x.numerator * (scale // x.denominator) for x, _ in pts]
    full = [1]                                   # N(y), descending coefficients
    for x in xs:
        full = [a - x * b for a, b in zip(full + [0], [0] + full)]
    quotients, terms = [], []
    for j, x in enumerate(xs):
        quo = [1]                                # N(y) / (y - x), descending
        for a in full[1:-1]:
            quo.append(a + x * quo[-1])
        node_value = math.prod([x - other for k, other in enumerate(xs) if k != j])  # N_j(X_j)
        value = pts[j][1]
        quotients.append(quo)
        terms.append((value.numerator, value.denominator * node_value))
    common = math.lcm(*[den for _, den in terms])
    sums = [0] * len(xs)
    for quo, (num, den) in zip(quotients, terms):
        factor = num * (common // den)
        if factor:
            sums = [s + factor * a for s, a in zip(sums, quo)]
    power, nums = 1, []
    for s in reversed(sums):                     # ascending, times D^i
        nums.append(s * power)
        power *= scale
    return DensityApprox(kind=LAGRANGE,
                         nodes=tuple([float(x) for x, _ in pts]),
                         values=tuple([float(v) for _, v in pts]),
                         poly=Poly.from_integers(nums, common))


def spline_density(nodes, weights):
    """Natural cubic spline through (node_j, weight_j); needs >= 3 nodes."""
    from scipy.interpolate import CubicSpline

    pts = _checked_points(nodes, weights, 3)
    xs = [float(x) for x, _ in pts]
    ys = [float(v) for _, v in pts]
    spline = CubicSpline(xs, ys, bc_type="natural")
    return DensityApprox(kind=SPLINE, nodes=tuple(xs), values=tuple(ys),
                         spline=spline)


def second_derivative_gaps(approx):
    """Spline diagnostics: |f''| at the two boundary knots and the worst
    one-sided f'' mismatch across interior knots (all ~0 for a natural spline).
    """
    if approx.kind != SPLINE:
        raise ValueError("second-derivative diagnostics are for splines")
    d2 = approx.spline.derivative(2)
    left, right = approx.nodes[0], approx.nodes[-1]
    boundary = max(abs(float(d2(left))), abs(float(d2(right))))
    worst = 0.0
    c = approx.spline.c  # (4, n_intervals) cubic coefficients per interval
    breaks = approx.spline.x
    for i in range(1, c.shape[1]):
        h = breaks[i] - breaks[i - 1]
        # f'' at the right end of interval i-1 vs the left end of interval i
        from_left = 6.0 * c[0, i - 1] * h + 2.0 * c[1, i - 1]
        from_right = 2.0 * c[1, i]
        worst = max(worst, abs(from_left - from_right))
    return boundary, worst


def sample_density(approx, x_min, x_max, count):
    """count >= 2 uniform samples of the approximant over [x_min, x_max].

    Rows are (x, value, flag); flag marks samples outside the node range.
    The grid is x_min + i * step with x_max last; a spline evaluates it in
    one call.  Accepts a plain callable too (then no flagging).  A non-finite
    end, a width beyond the float range, or a value that overflows a float or
    is not finite raises ValueError naming its interval or the first such x.
    """
    if count < 2:
        raise ValueError("need at least 2 samples")
    width = x_max - x_min
    if not (math.isfinite(x_min) and math.isfinite(x_max) and math.isfinite(width)):
        raise ValueError("cannot sample [%r, %r]: its ends and its width must be finite"
                         % (x_min, x_max))
    if width < 0:
        raise ValueError("empty sample interval")
    step = width / (count - 1)
    xs = [x_min + i * step for i in range(count - 1)] + [x_max]
    if isinstance(approx, DensityApprox) and approx.kind == SPLINE:
        values = approx.spline(xs).tolist()
    else:
        values = [float(approx(x)) for x in xs]
    flagger = approx.flag if isinstance(approx, DensityApprox) else lambda _x: ""
    for x, value in zip(xs, values):
        if not math.isfinite(value):
            raise ValueError("the density overflows or is not finite at x = %r" % x)
    return [(x, value, flagger(x)) for x, value in zip(xs, values)]
