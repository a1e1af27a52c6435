"""Exact scalars: rational parsing/formatting and Gaussian rationals.

Real coefficients are plain fractions.Fraction.  Schemes whose nodes a_n, b_n
sit off the real axis need arithmetic in Q(i); GaussianRational supplies just
enough of it (ring ops, division, conjugation) and interoperates with Fraction
and int through the usual reflected operators.  A Gaussian value with zero
imaginary part simplifies back to Fraction so downstream equality checks stay
uniform.

A float or complex point enters the exact layer as the exact value it stores
(`exact_point`); the exact result leaves it rounded once (`rounded`).
"""

from __future__ import annotations

import cmath
from fractions import Fraction


def rational(value):
    """Coerce value to an exact Fraction.

    Accepts Fraction, int, "p/q" / "p" strings, and floats.  Floats are
    converted exactly (every binary float is rational); decimal-looking
    strings such as "0.1" mean the exact decimal 1/10.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    if isinstance(value, float):
        return Fraction(value)
    if isinstance(value, GaussianRational):
        if value.im == 0:
            return value.re
        raise ValueError("cannot coerce complex value %r to a real rational" % (value,))
    raise TypeError("cannot interpret %r as an exact rational" % (value,))


def format_rational(q):
    """Render a Fraction as "p/q" (or "p" when the denominator is 1)."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def _as_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    return None


class GaussianRational:
    """Exact element of Q(i): re + im*i with Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def i():
        return GaussianRational(0, 1)

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def norm(self):
        """re^2 + im^2 as a Fraction."""
        return self.re * self.re + self.im * self.im

    def simplify(self):
        """Return a Fraction when the imaginary part is zero, else self."""
        return self.re if self.im == 0 else self

    def __complex__(self):
        return complex(self.re, self.im)

    def _coerce(self, other):
        if isinstance(other, GaussianRational):
            return other
        real = _as_fraction(other)
        if real is not None:
            return GaussianRational(real)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        out = GaussianRational(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        real = _as_fraction(other)
        if real is not None:
            return self.im == 0 and self.re == real
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        if self.im == 0:
            return "GaussianRational(%s)" % (self.re,)
        return "GaussianRational(%s, %s)" % (self.re, self.im)

    def __str__(self):
        if self.im == 0:
            return format_rational(self.re)
        sign = "+" if self.im >= 0 else "-"
        return "%s %s %s*i" % (format_rational(self.re), sign, format_rational(abs(self.im)))


def simplify_scalar(value):
    """Collapse GaussianRational with zero imaginary part to Fraction."""
    if isinstance(value, GaussianRational):
        return value.simplify()
    return value


def exact_point(z):
    """The exact value z stores: a float's binary rational, a complex number's
    Gaussian rational; exact z unchanged.  Non-finite z raises ValueError."""
    if not isinstance(z, (float, complex)):
        return z
    if not cmath.isfinite(z):
        raise ValueError("cannot evaluate at the non-finite point %r" % (z,))
    return GaussianRational(Fraction(z.real), Fraction(z.imag)).simplify()


def rounded(value, *points):
    """An exact value at the exact_point of each point, rounded once: unchanged
    when every point is exact, else complex when a point is complex or the
    value is not real, else a float."""
    inexact = [p for p in points if isinstance(p, (float, complex))]
    if not inexact:
        return value
    value = simplify_scalar(value)
    if isinstance(value, GaussianRational) or any(isinstance(p, complex) for p in inexact):
        return complex(value)
    return float(value)
