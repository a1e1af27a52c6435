"""Density approximations built from quadrature nodes and weights.

An n-point rule pins the unknown density only at its nodes; between them we
interpolate, either globally (Lagrange, one degree-(n-1) polynomial, computed
in exact rational arithmetic so knot interpolation is literally exact) or
locally (natural cubic spline: second derivative zero at both end knots).
Outside the node range the Lagrange polynomial extrapolates and the spline
continues its boundary cubic; sampled points out there carry a flag.
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


def _checked_points(nodes, values, minimum):
    if len(nodes) != len(values):
        raise ValueError("need one value per node")
    if len(nodes) < minimum:
        raise ValueError("need at least %d nodes" % minimum)
    pts = sorted(zip((Fraction(x) for x in nodes), values))
    for (x0, _), (x1, _) in zip(pts, pts[1:]):
        if x0 == x1:
            raise ValueError("duplicate node at x = %s" % x0)
    return pts


def lagrange_density(nodes, weights):
    """The degree-(n-1) interpolant through (node_j, weight_j), exact.

    Newton's divided differences over Fractions, expanded to a dense Poly;
    the result is independent of the input ordering.
    """
    pts = _checked_points(nodes, weights, 1)
    xs = [p[0] for p in pts]
    dd = [Fraction(v) for _, v in pts]
    for order in range(1, len(xs)):
        for j in range(len(xs) - 1, order - 1, -1):
            dd[j] = (dd[j] - dd[j - 1]) / (xs[j] - xs[j - order])
    poly = Poly.const(dd[-1])
    for j in range(len(xs) - 2, -1, -1):
        poly = poly * Poly((-xs[j], 1)) + dd[j]
    return DensityApprox(kind=LAGRANGE,
                         nodes=tuple(float(x) for x in xs),
                         values=tuple(float(v) for _, v in pts),
                         poly=poly)


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
    Accepts a plain callable too (then no flagging).  A value that overflows
    a float or is not finite raises ValueError naming its x.
    """
    if count < 2:
        raise ValueError("need at least 2 samples")
    if x_max < x_min:
        raise ValueError("empty sample interval")
    step = (x_max - x_min) / (count - 1)
    rows = []
    flagger = approx.flag if isinstance(approx, DensityApprox) else lambda _x: ""
    for i in range(count):
        x = x_max if i == count - 1 else x_min + i * step
        value = float(approx(x))
        if not math.isfinite(value):
            raise ValueError("the density overflows or is not finite at x = %r" % x)
        rows.append((x, value, flagger(x)))
    return rows
