"""Dense univariate polynomials over exact scalars.

A rational polynomial is stored in one canonical integer form: `_nums`, the
ascending integer numerators with no trailing zero, over one common
denominator `_den` > 0 with gcd(_den, *_nums) == 1.  So sum_j (_nums[j]/_den)
x^j is the polynomial, equality is a tuple comparison, and the zero
polynomial is `_nums == ()`, `_den == 1`, of degree -1 by convention.  Ring
operations are integer convolutions and sums reduced by one gcd per result,
not one per coefficient op.  `coeffs` still reads the reduced Fractions, but
nothing hot goes through it.

A polynomial with a non-real GaussianRational coefficient takes the generic
dense path instead: `_den` is None and `_nums` holds the exact scalars.  Only
the worked example's closed form, non-conjugate complex nodes and the tests
make such polynomials; a result whose imaginary parts all cancel returns to
the integer form.

Exact evaluation of a rational polynomial runs on integers: `ratio_at`
evaluates the numerators at z = p/q by integer Horner and returns an
unreduced pair (num, den).  A float z is the dyadic rational m/2^e, so the
powers of q are shifts; `num / den` is then the correctly rounded float of
P(z), bit for bit what float(Fraction) gives, without a single gcd.  A call
at a float or complex z is exact at the point z stores, rounded once.

The exact numerator grows by about 53 bits a Horner step, yet a float result
only has to be rounded correctly.  So at a float x = p/2^e, `enclose` first
runs Horner in fixed point with FRACTION_BITS fraction bits,
    t <- floor(t * p / 2^e) + a_j * 2^FRACTION_BITS,
whose width is that of the coefficients plus FRACTION_BITS and the size of
the partial sums, not 53 bits more each step.  Each floor loses less than
one unit, so the exact numerator lies within sum_{k<n} |x|^k units of t; that
sum is at most n max(1, |x|)^(n-1), which is bounded in floats with a
relative margin, plus one unit.  A call at a float returns the enclosure's
rounding when both ends round to the same float (`exact.common_rounding`),
which proves it is the correctly rounded P(x); otherwise `ratio_at` decides,
and so it does when the bound overflows or the degree is below
ENCLOSE_MIN_DEGREE.  `rounded_ratio` rounds a scaled quotient of two
polynomials at x the same way, from the corners of their enclosures or from
exact Horner.

A polynomial with integer coefficients (denominator 1) packs into one int,
its value at X = 2^bits (`packed`; Kronecker substitution).  Evaluation at
2^bits is a ring map Z[X] -> Z, so sums and products of packed values are
the packed sums and products, each one big-int operation.  `unpacked` reads
the coefficients back as the signed base-2^bits digits of such a value; the
digits are unique, so they are the coefficients whenever every coefficient
lies in [-2^(bits-1), 2^(bits-1)).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from operator import add, mul

from .exact import (GaussianRational, common_rounding, exact_point, quotient, rounded,
                    simplify_scalar)

FRACTION_BITS = 128    # fixed-point fraction bits of `Poly.enclose`
# Below this degree the exact numerator is hardly wider than the fixed-point
# one, and exact Horner with one division costs no more than the enclosure
# and its two-sided rounding check: with the enclosure, `build_rule` took
# 0-14% longer at n = 3..10 and 2-20% less at n = 12..30.  So `enclose`
# leaves such polynomials to `ratio_at`.
ENCLOSE_MIN_DEGREE = 11


def _norm_coeff(c):
    if isinstance(c, (Fraction, GaussianRational)):
        return simplify_scalar(c)
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError("polynomial coefficients must be exact scalars, got %r" % (c,))


def _make(nums, den):
    """The canonical Poly of nums/den: a list of ints (consumed), den > 0."""
    while nums and not nums[-1]:
        nums.pop()
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [a // g for a in nums]
            den //= g
    p = object.__new__(Poly)
    p._nums = tuple(nums)
    p._den = den
    return p


def _sum(a, b):
    """Coefficientwise a + b of two ascending sequences, as a new list."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    out[:len(b)] = map(add, a, b)
    return out


def _convolve(a, b, zero):
    """Coefficients of the product of two nonempty ascending sequences."""
    if len(a) > len(b):
        a, b = b, a
    nb = len(b)
    out = [zero] * (len(a) + nb - 1)
    for i, x in enumerate(a):
        if x:
            out[i:i + nb] = map(add, out[i:i + nb], map(mul, repeat(x), b))
    return out


class Poly:
    """Immutable dense polynomial; supports +, -, *, scalar mul, ** and calls."""

    # _fixed: the numerators shifted left by FRACTION_BITS, set by the first
    # enclosure
    __slots__ = ("_nums", "_den", "_fixed")

    def __init__(self, coeffs=()):
        cs = [_norm_coeff(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        if any(isinstance(c, GaussianRational) for c in cs):
            self._nums, self._den = tuple(cs), None
            return
        # over the lcm of reduced denominators, gcd(den, *nums) is already 1;
        # lists, not generators: tuple(generator) is built oversized and
        # shrunk, stranding memory in the free list of another size
        den = math.lcm(*[c.denominator for c in cs])
        self._nums = tuple([c.numerator * (den // c.denominator) for c in cs])
        self._den = den

    # --- constructors -------------------------------------------------
    @staticmethod
    def zero():
        return _ZERO

    @staticmethod
    def one():
        return _ONE

    @staticmethod
    def x():
        return Poly((0, 1))

    @staticmethod
    def const(c):
        return Poly((c,))

    @staticmethod
    def from_integers(nums, den):
        """The Poly sum_j nums[j] x^j / den of integers nums and den > 0."""
        return _make(list(nums), den)

    # --- structure ----------------------------------------------------
    @property
    def coeffs(self):
        """Ascending coefficients: reduced Fractions, or Gaussian scalars."""
        if self._den is None:
            return self._nums
        den = self._den
        return tuple([Fraction(a, den) for a in self._nums])

    @property
    def denominator(self):
        """The common denominator of the coefficients; None when one is not real."""
        return self._den

    @property
    def degree(self):
        return len(self._nums) - 1

    def is_zero(self):
        return not self._nums

    def leading(self):
        """Leading coefficient; 0 for the zero polynomial."""
        return self[len(self._nums) - 1]

    def __getitem__(self, j):
        if not 0 <= j < len(self._nums):
            return Fraction(0)
        if self._den is None:
            return self._nums[j]
        return Fraction(self._nums[j], self._den)

    # --- ring operations ----------------------------------------------
    def _plus(self, other, sign):
        """self + sign * other, for sign = +1 or -1."""
        if self._den is None or other._den is None:
            b = other.coeffs if sign == 1 else [-c for c in other.coeffs]
            return Poly(_sum(self.coeffs, b))
        da, db = self._den, other._den
        g = math.gcd(da, db)
        sa, sb = db // g, sign * (da // g)
        a = self._nums if sa == 1 else [x * sa for x in self._nums]
        b = other._nums if sb == 1 else [y * sb for y in other._nums]
        return _make(_sum(a, b), da * sa)

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        out = [-a for a in self._nums]
        return Poly(out) if self._den is None else _make(out, self._den)

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self._plus(other, -1)

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other._plus(self, -1)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if not self._nums or not other._nums:
                return _ZERO
            if self._den is None or other._den is None:
                return Poly(_convolve(self.coeffs, other.coeffs, Fraction(0)))
            return _make(_convolve(self._nums, other._nums, 0),
                         self._den * other._den)
        if isinstance(other, (int, Fraction)) and self._den is not None:
            p = other.numerator
            return _make([p * a for a in self._nums], self._den * other.denominator)
        try:
            c = _norm_coeff(other)
        except TypeError:
            return NotImplemented
        return Poly([c * a for a in self.coeffs])

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        out = _ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # --- analysis -----------------------------------------------------
    def __call__(self, z):
        """P(z), exact at the point z stores and rounded once for float or complex z.

        Rational coefficients at a float z return the rounding of `enclose`
        when it is proven, else of `ratio_at`; at a rational point they take
        `ratio_at`; the rest run Horner.  A value beyond the float range is
        +-inf.
        """
        if self._den is not None and isinstance(z, float) and math.isfinite(z):
            return self.value_and_enclosure(z)[0]
        x = exact_point(z)
        if self._den is not None and isinstance(x, (int, Fraction)):
            return rounded(Fraction(*self.ratio_at(x)), z)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return rounded(simplify_scalar(acc), z)

    def value_and_enclosure(self, x):
        """(P(x), enclose(x)) at a finite float x: P(x) rounded once, as a call
        gives it, and the enclosure it was read from (None when there is none).

        The coefficients must be rational.
        """
        box = self.enclose(x)
        if box is not None:
            lo, hi, den = box
            value = common_rounding(((lo, den), (hi, den)))
            if value is not None:
                return value, box
        return quotient(*self.ratio_at(x)), box

    def ratio_at(self, z):
        """P(z) as an unreduced integer pair (num, den) with den > 0, exact.

        z is an int, a Fraction or a float; the coefficients must be rational.
        With coeffs[j] = a_j / D and z = p/q, integer Horner
            t <- t*p + a_j * q^(n-j)
        gives P(z) = t / (D q^n).  For a power-of-two q (every float, every
        int) the powers are shifts.
        """
        if self._den is None:
            raise TypeError("ratio_at needs rational coefficients")
        if isinstance(z, int):
            p, q = z, 1
        elif isinstance(z, (Fraction, float)):
            p, q = z.as_integer_ratio()
        else:
            raise TypeError("ratio_at needs an int, Fraction or float, got %r" % (z,))
        nums, common = self._nums, self._den
        if not nums:
            return 0, 1
        t = nums[-1]
        if q & (q - 1) == 0:
            e = q.bit_length() - 1
            shift = 0
            for a in nums[-2::-1]:
                shift += e
                t = t * p + (a << shift)
            return t, common << shift
        scale = 1
        for a in nums[-2::-1]:
            scale *= q
            t = t * p + a * scale
        return t, common * scale

    def enclose(self, x):
        """(lo, hi, den) with lo/den <= P(x) <= hi/den at a finite float x, or None.

        Fixed-point Horner with FRACTION_BITS fraction bits over den = _den *
        2^FRACTION_BITS (see the module docstring).  None, meaning "evaluate
        exactly", below degree ENCLOSE_MIN_DEGREE and when the bound on the
        error overflows a float.  The coefficients must be rational.
        """
        if self._den is None:
            raise TypeError("enclose needs rational coefficients")
        nums = self._nums
        n = len(nums) - 1
        if n < ENCLOSE_MIN_DEGREE:
            return None
        try:
            # sum_{k<n} |x|^k <= n max(1, |x|)^(n-1)
            bound = n * max(1.0, abs(x)) ** (n - 1) * (1.0 + 1e-12)
        except OverflowError:
            return None
        if bound == math.inf:
            return None
        err = math.ceil(bound) + 1
        try:
            fixed = self._fixed
        except AttributeError:
            fixed = self._fixed = tuple([a << FRACTION_BITS for a in nums])
        p, q = x.as_integer_ratio()
        e = q.bit_length() - 1
        t = fixed[-1]
        for s in fixed[-2::-1]:
            t = ((t * p) >> e) + s
        return t - err, t + err, self._den << FRACTION_BITS

    def derivative(self):
        out = [j * a for j, a in enumerate(self._nums)][1:]
        return Poly(out) if self._den is None else _make(out, self._den)

    def float_coeffs(self):
        """Ascending float (or complex) coefficients for numpy hand-off."""
        if self._den is not None:
            den = self._den
            return [a / den for a in self._nums]   # correctly rounded, as float(Fraction)
        return [complex(c) if isinstance(c, GaussianRational) else float(c)
                for c in self._nums]

    # --- protocol -----------------------------------------------------
    def __eq__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self):
        return hash((self._nums, self._den))

    def __repr__(self):
        return "Poly(%s)" % (list(self.coeffs),)

    def __str__(self):
        if not self._nums:
            return "0"
        parts = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            if j == 0:
                parts.append(str(c))
                continue
            # a non-real coefficient is a sum, so it is parenthesized before "*x"
            text = "(%s)" % (c,) if isinstance(c, GaussianRational) else str(c)
            parts.append(text + ("*x" if j == 1 else "*x^%d" % j))
        return " + ".join(parts)


# Poly is immutable (`_fixed` is a cache, set only from degree
# ENCLOSE_MIN_DEGREE up), so one instance of each constant serves every caller.
_ZERO = _make([], 1)
_ONE = _make([1], 1)


def rounded_ratio(scale, top, bottom, x, bottom_box=None):
    """scale * top(x) / bottom(x) at a finite float x, correctly rounded.

    scale is an int or a Fraction; top and bottom have rational coefficients.
    bottom_box, when given, is bottom.enclose(x).  The quotient is monotone in
    each factor over enclosures where bottom(x) keeps its sign, so when the
    four corner quotients round alike, that is its rounding; otherwise exact
    Horner decides.  Raises ZeroDivisionError when bottom(x) = 0.
    """
    num, den = scale.numerator, scale.denominator
    t = top.enclose(x)
    if t is not None:
        b = bottom.enclose(x) if bottom_box is None else bottom_box
        if b is not None and not b[0] <= 0 <= b[1]:
            value = common_rounding([(num * u * b[2], den * t[2] * v)
                                     for u in t[:2] for v in b[:2]])
            if value is not None:
                return value
    bn, bd = bottom.ratio_at(x)
    if bn == 0:
        raise ZeroDivisionError("the denominator vanishes at x = %r" % (x,))
    tn, td = top.ratio_at(x)
    return quotient(num * tn * bd, den * td * bn)


def norm1(poly):
    """sum_j |a_j| over the integer numerators a_j of a rational Poly."""
    return sum(map(abs, poly._nums))


def packed(poly, bits):
    """P(2^bits) of a Poly with integer coefficients (denominator 1), an int."""
    if poly._den != 1:
        raise ValueError("only integer polynomials pack")
    t = 0
    for a in reversed(poly._nums):
        t = (t << bits) + a
    return t


def unpacked(value, bits, size, den):
    """The Poly sum_{j<size} d_j x^j / den, d_j the signed base-2^bits digits of
    value, each in [-2^(bits-1), 2^(bits-1)); bits is a multiple of 8.

    Adding 2^(bits-1) to every digit makes them all nonnegative, so one
    little-endian byte string holds them, bits/8 bytes each.
    """
    width = bits // 8
    half = 1 << (bits - 1)
    bias = int.from_bytes(half.to_bytes(width, "little") * size, "little")
    raw = (value + bias).to_bytes(width * size, "little")
    return _make([int.from_bytes(raw[j:j + width], "little") - half
                  for j in range(0, width * size, width)], den)


def _as_poly(value):
    if isinstance(value, Poly):
        return value
    try:
        return Poly((_norm_coeff(value),))
    except TypeError:
        return NotImplemented
