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
unreduced pair (num, den); `num / den` is then the correctly rounded float
of P(z), bit for bit what float(Fraction) gives, without a single gcd.  A
call at a float or complex z is exact at the point z stores, rounded once.

The exact numerator grows by about 53 bits a Horner step, yet a float result
only has to be rounded correctly.  So at a float x = p/2^e, `enclose` runs
Horner in fixed point on coefficients f_j in a unit 2^-s,
    t <- floor(t * p / 2^e) + f_j,
whose width is that of the f_j and the size of the partial sums, not 53 bits
more each step.  Each f_j is a_j 2^s / _den truncated toward zero and each
floor loses less than one unit, so 2^s P(x) lies within
sum_{k<=n} |x|^k + sum_{k<n} |x|^k <= (2n+1) max(1, |x|)^n units of t, an
integer bound at every |x|, raised to a power of two.  The unit is chosen
once per polynomial, by its first enclosure, which keeps the f_j and 2^s in
`_fixed` (`_fixed_point`): s = bits(_den) + FRACTION_BITS, finer than
1/(_den 2^FRACTION_BITS), while the numerators have at most 2 FRACTION_BITS
bits, as every rule polynomial's has.  A wider numerator would make every
step as wide as _den (about 9,350 bits for the Lagrange interpolant at
n = 20), so then s shrinks until the largest f_j has about 3 FRACTION_BITS
bits (s >= 0).  Every rational polynomial, the zero polynomial and
constants among them, is enclosed so at every finite float.  A call at a
float returns the enclosure's rounding when both ends round to the same
float (`exact.common_rounding`), which proves it is the correctly rounded
P(x); otherwise exact Horner (`ratio_at`) decides.  `rounded_ratio` rounds a
scaled quotient of two polynomials at x the same way, from the extreme
corners of their enclosures or from exact Horner.

When every other fixed-point coefficient is 0, as for an even or odd P of
degree n = 2m or 2m + 1 >= 2 (recorded once, in `_half`), `enclose` runs
the same Horner in y = x^2 = p^2/2^(2e) over the m + 1 others,
    t <- floor(t * p^2 / 2^(2e)) + f_j,
and for odd n multiplies once by x, t <- floor(t * p / 2^e).  Truncating
every coefficient, those that truncate to 0 too, still loses less than
sum_{k<=n} |x|^k <= (n+1) M^n units, M = max(1, |x|); the m floors in y
lose less than sum_{k<m} y^k, times |x| for odd n, whose product by x
floors once more.  So t is within (n + m + 2) M^n <= (2n+1) M^n units of
2^s P(x): the same bound, from about half the big-int steps.

A polynomial with integer coefficients packs into one int, its value at
X = 2^bits (`packed`, which takes the coefficients; Kronecker substitution).  Evaluation at
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

    # _fixed: the fixed-point coefficients and their unit, and _half: those
    # of P's parity, descending, when P is even or odd (else None); both set
    # by the first enclosure (`_fixed_point`)
    __slots__ = ("_nums", "_den", "_fixed", "_half")

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
    def numerators(self):
        """The ascending integer numerators over `denominator`; the exact
        scalars themselves when a coefficient is not real."""
        return self._nums

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
        when its ends round alike, else of `ratio_at`; at a rational point
        they take `ratio_at`; the rest run Horner.  A value beyond the float
        range is +-inf.
        """
        if self._den is not None and isinstance(z, float) and math.isfinite(z):
            lo, hi, den = self.enclose(z)
            value = common_rounding((lo, den), (hi, den))
            return quotient(*self.ratio_at(z)) if value is None else value
        x = exact_point(z)
        if self._den is not None and isinstance(x, (int, Fraction)):
            return rounded(Fraction(*self.ratio_at(x)), z)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return rounded(simplify_scalar(acc), z)

    def ratio_at(self, z):
        """P(z) as an unreduced integer pair (num, den) with den > 0, exact.

        z is an int, a Fraction or a float; the coefficients must be rational.
        With coeffs[j] = a_j / D and z = p/q, integer Horner
            t <- t*p + a_j * q^(n-j)
        gives P(z) = t / (D q^n).
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
        scale = 1
        for a in nums[-2::-1]:
            scale *= q
            t = t * p + a * scale
        return t, common * scale

    def enclose(self, x):
        """(lo, hi, den) with lo/den <= P(x) <= hi/den at a finite float x.

        Fixed-point Horner over the unit 1/den of `_fixed_point`, in x^2 when
        P is even or odd (see the module docstring).  The coefficients must
        be rational.
        """
        if self._den is None:
            raise TypeError("enclose needs rational coefficients")
        try:
            fixed, den = self._fixed
        except AttributeError:
            fixed, den = self._fixed = self._fixed_point()
        n = max(0, len(fixed) - 1)      # the zero polynomial's sum is empty
        # the error is below (2n+1) max(1, |x|)^n units; log2 errs by far less
        # than the one bit added
        err = 1 << (math.ceil(math.log2(2 * n + 1) + n * math.log2(max(1.0, abs(x)))) + 1)
        p, q = x.as_integer_ratio()
        e = q.bit_length() - 1
        t = 0
        half = self._half
        if half is None:
            for s in reversed(fixed):
                t = ((t * p) >> e) + s
        else:
            square, e2 = p * p, 2 * e
            for s in half:
                t = ((t * square) >> e2) + s
            if n & 1:
                t = (t * p) >> e
        return t - err, t + err, den

    def _fixed_point(self):
        """(coefficients, den): each a_j / _den in the unit 1/den of `enclose`,
        rounded toward zero, den a power of two (see the module docstring).
        Records in `_half` the coefficients of P's parity, descending, when
        the others all are 0 at degree >= 2; else None."""
        nums, common = self._nums, self._den
        top = max([a.bit_length() for a in nums], default=0)
        shift = max(0, common.bit_length() + min(FRACTION_BITS, 3 * FRACTION_BITS - top))
        # toward zero, |f_j| <= |a_j| 2^shift / den: never wider than the exact value
        fixed = tuple([(a << shift) // common if a >= 0 else -((-a << shift) // common)
                       for a in nums])
        odd = (len(fixed) - 1) & 1
        self._half = (fixed[odd::2][::-1] if len(fixed) > 2 and not any(fixed[1 - odd::2])
                      else None)
        return fixed, 1 << shift

    def derivative(self):
        out = [j * a for j, a in enumerate(self._nums)][1:]
        return Poly(out) if self._den is None else _make(out, self._den)

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


# Poly is immutable (`_fixed` is a cache of what the coefficients determine),
# so one instance of each constant serves every caller.
_ZERO = _make([], 1)
_ONE = _make([1], 1)


def rounded_ratio(scale, top, bottom, x, bottom_box=None, top_box=None):
    """scale * top(x) / bottom(x) at a finite float x, correctly rounded.

    scale is an int or a Fraction; top and bottom have rational coefficients.
    bottom_box and top_box, when given, are bottom.enclose(x) and
    top.enclose(x).  Over enclosures where
    bottom(x) keeps its sign, the quotient is monotone in each factor, so it
    lies between two corners: the least and the greatest top, each over the
    bottom end that makes the quotient more extreme.  When they round alike,
    that is its rounding; otherwise exact Horner decides.  Raises
    ZeroDivisionError when bottom(x) = 0.
    """
    num, den = scale.numerator, scale.denominator
    b_lo, b_hi, bd = bottom_box or bottom.enclose(x)
    if not b_lo <= 0 <= b_hi:
        t_lo, t_hi, td = top_box or top.enclose(x)
        # the ends of the bottom nearest to and farthest from 0
        near, far = (b_lo, b_hi) if b_lo > 0 else (b_hi, b_lo)
        nb, dt = num * bd, den * td
        value = common_rounding((nb * t_lo, dt * (near if t_lo < 0 else far)),
                                (nb * t_hi, dt * (near if t_hi > 0 else far)))
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


def packed(nums, bits):
    """P(2^bits), an int, of the polynomial P with the ascending integer
    coefficients nums."""
    t = 0
    for a in reversed(nums):
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
