"""Density approximations built from quadrature nodes and weights.

An n-point rule pins the unknown density only at its nodes; between them we
interpolate, either globally (Lagrange, one degree-(n-1) polynomial, computed
exactly, so knot interpolation is literally exact) or locally (natural cubic
spline: second derivative zero at both end knots).  Outside the node range
the Lagrange polynomial extrapolates and the spline continues its boundary
cubic; sampled points out there carry a flag.

The spline is built and evaluated in plain Python floats, without scipy,
doing the float operations of scipy 1.17's `CubicSpline(xs, ys,
bc_type="natural")` one for one: the same tridiagonal system for the knot
slopes, solved by a port of LAPACK's dgtsv that keeps its row interchanges
(they fire on rule knots), `CubicHermiteSpline`'s four coefficients per
interval, and `PPoly`'s term-by-term evaluation.  So every coefficient and
sample has the same bits as scipy's, and the knot sets scipy refuses raise
ValueError here.

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
from bisect import bisect_right
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
    cubics: tuple = None    # spline: (c0, c1, c2, c3) of interval i, in s = x - nodes[i]

    def __call__(self, x):
        if self.kind == LAGRANGE:
            # exact rational evaluation: knots reproduce their values exactly
            return self.poly(x)
        # PPoly's evaluation: the interval by bisection (the end cubics
        # extrapolate), then c3 + c2 s + c1 s^2 + c0 s^3 term by term from
        # 0.0, which turns a -0.0 into 0.0 as PPoly does
        x = float(x)
        nodes = self.nodes
        i = bisect_right(nodes, x, 1, len(nodes) - 1) - 1
        s = x - nodes[i]
        c0, c1, c2, c3 = self.cubics[i]
        z = s * s
        return 0.0 + c3 + c2 * s + c1 * z + c0 * (z * s)

    def flag(self, x):
        return EXTRAPOLATED if (x < self.nodes[0] or x > self.nodes[-1]) else ""


def _exact(v):
    """v as a Fraction; a non-finite float or a number beyond the float range
    raises ValueError."""
    try:
        x = Fraction(v)
        float(x)        # OverflowError beyond the float range
    except (OverflowError, ValueError):
        raise ValueError("nodes and values must be finite numbers within the float "
                         "range, got %r" % (v,)) from None
    return x


def _checked_points(nodes, values, minimum):
    """The (node, value) pairs as Fractions, sorted by node; ValueError on a
    count mismatch, too few nodes, an entry that is not finite or lies beyond
    the float range, or a duplicate node."""
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


def _solve_tridiagonal(dl, d, du, b):
    """LAPACK's dgtsv for one right-hand side, in place: Gaussian elimination
    with a row interchange wherever the subdiagonal entry is the larger
    pivot, then back substitution.  dl, d, du are the sub-, main and
    superdiagonal; the solution overwrites b.  ValueError on an exactly zero
    pivot (dgtsv's INFO > 0).
    """
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            if d[i] == 0.0:
                raise ValueError("the spline's slope system is singular")
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            dl[i] = 0.0
        else:
            # rows i and i + 1 swap; dl[i] then holds the second superdiagonal
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    if d[n - 1] == 0.0:
        raise ValueError("the spline's slope system is singular")
    b[n - 1] = b[n - 1] / d[n - 1]
    b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return b


def spline_density(nodes, weights):
    """Natural cubic spline through (node_j, weight_j); needs >= 3 nodes.

    The slopes s_j at the knots solve scipy's banded system: row j of the
    interior reads h_j s_{j-1} + 2 (h_{j-1} + h_j) s_j + h_{j-1} s_{j+1} =
    3 (h_j m_{j-1} + h_{j-1} m_j), with h_j the knot spacings and m_j the
    chord slopes, and f'' = 0 closes both ends.  Interval j then holds
    c3 + c2 s + c1 s^2 + c0 s^3 in s = x - x_j, scipy's Hermite form.  Knots
    that round to the same float, and a system with an exactly zero pivot
    or slopes that are not finite (a spacing above about 1.3e154, or a knot
    range beyond the float range), raise ValueError.
    """
    pts = _checked_points(nodes, weights, 3)
    xs = [float(x) for x, _ in pts]
    ys = [float(v) for _, v in pts]
    h = [b - a for a, b in zip(xs, xs[1:])]
    if min(h) <= 0.0:
        raise ValueError("two nodes round to the same float")
    m = [(b - a) / dx for a, b, dx in zip(ys, ys[1:], h)]
    d = [2 * h[0]] + [2 * (a + b) for a, b in zip(h, h[1:])] + [2 * h[-1]]
    du = h[:1] + h[:-1]
    dl = h[1:] + h[-1:]
    # the natural ends' -0.5 f'' h^2 terms are nan once h^2 overflows
    rhs = ([-0.5 * 0.0 * (h[0] * h[0]) + 3 * (ys[1] - ys[0])]
           + [3 * (h[j] * m[j - 1] + h[j - 1] * m[j]) for j in range(1, len(h))]
           + [0.5 * 0.0 * (h[-1] * h[-1]) + 3 * (ys[-1] - ys[-2])])
    slopes = _solve_tridiagonal(dl, d, du, rhs)
    if not all(map(math.isfinite, slopes)):
        raise ValueError("the spline's slopes at its knots are not finite")
    cubics = []
    for j, dx in enumerate(h):
        t = (slopes[j] + slopes[j + 1] - 2 * m[j]) / dx
        cubics.append((t / dx, (m[j] - slopes[j]) / dx - t, slopes[j], ys[j]))
    return DensityApprox(kind=SPLINE, nodes=tuple(xs), values=tuple(ys),
                         cubics=tuple(cubics))


def second_derivative_gaps(approx):
    """Spline diagnostics: |f''| at the two boundary knots and the worst
    one-sided f'' mismatch across interior knots (all ~0 for a natural spline).
    """
    if approx.kind != SPLINE:
        raise ValueError("second-derivative diagnostics are for splines")
    # on interval j, f'' is 2 c1 at its left knot and 6 c0 h + 2 c1 at its right
    starts = [2.0 * c1 for _c0, c1, _c2, _c3 in approx.cubics]
    ends = [6.0 * c0 * (b - a) + 2.0 * c1
            for (c0, c1, _c2, _c3), a, b in zip(approx.cubics, approx.nodes, approx.nodes[1:])]
    boundary = max(abs(starts[0]), abs(ends[-1]))
    worst = max(abs(left - right) for left, right in zip(ends, starts[1:]))
    return boundary, worst


def sample_density(approx, x_min, x_max, count):
    """count >= 2 uniform samples of the approximant over [x_min, x_max].

    Rows are (x, value, flag); flag marks samples outside the node range.
    The grid is x_min + i * step with x_max last, and each sample is one
    call of the approximant.  Accepts a plain callable too (then no
    flagging).  A non-finite end, a width beyond the float range, or a value
    that overflows a float or is not finite raises ValueError naming its
    interval or the first such x.
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
    values = [float(approx(x)) for x in xs]
    flagger = approx.flag if isinstance(approx, DensityApprox) else lambda _x: ""
    for x, value in zip(xs, values):
        if not math.isfinite(value):
            raise ValueError("the density overflows or is not finite at x = %r" % x)
    return [(x, value, flagger(x)) for x, value in zip(xs, values)]
