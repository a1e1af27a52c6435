"""Dense univariate polynomials over exact scalars.

Coefficients are stored ascending (coeffs[j] multiplies x^j) and are Fractions
or GaussianRationals; arithmetic never leaves exact scalars.  The zero
polynomial is the empty tuple — the single canonical representation — and has
degree -1 by convention.

Exact evaluation of a rational polynomial runs on integers: `ratio_at` keeps
the numerators over one common denominator D (computed once per polynomial
and cached) and evaluates at z = p/q by integer Horner, returning an
unreduced pair (num, den).  A float z is the dyadic rational m/2^e, so the
powers of q are shifts; `num / den` is then the correctly rounded float of
P(z), bit for bit what float(Fraction) gives, without a single gcd.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import GaussianRational, simplify_scalar


def _norm_coeff(c):
    if isinstance(c, (Fraction, GaussianRational)):
        return simplify_scalar(c)
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError("polynomial coefficients must be exact scalars, got %r" % (c,))


class Poly:
    """Immutable dense polynomial; supports +, -, *, scalar mul, ** and calls."""

    __slots__ = ("coeffs", "_ints")

    def __init__(self, coeffs=()):
        cs = [_norm_coeff(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)
        self._ints = None  # (numerators, D) once ratio_at has needed it

    # --- constructors -------------------------------------------------
    @staticmethod
    def zero():
        return Poly(())

    @staticmethod
    def one():
        return Poly((1,))

    @staticmethod
    def x():
        return Poly((0, 1))

    @staticmethod
    def const(c):
        return Poly((c,))

    # --- structure ----------------------------------------------------
    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def leading(self):
        """Leading coefficient; 0 for the zero polynomial."""
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __getitem__(self, j):
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return Fraction(0)

    # --- ring operations ----------------------------------------------
    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for j, c in enumerate(b):
            out[j] = out[j] + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if not self.coeffs or not other.coeffs:
                return Poly(())
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return Poly(out)
        try:
            c = _norm_coeff(other)
        except TypeError:
            return NotImplemented
        return Poly([c * a for a in self.coeffs])

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        out = Poly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # --- analysis -----------------------------------------------------
    def __call__(self, z):
        """Horner evaluation; exact when z is exact, float/complex otherwise.

        Rational coefficients at an int or Fraction z take the integer path of
        `ratio_at`; Gaussian coefficients or a Gaussian z run generic Horner.
        """
        if isinstance(z, (int, Fraction)) and self._integer_form() is not None:
            return Fraction(*self.ratio_at(z))
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * z + c
        if acc is None:
            return Fraction(0) if not isinstance(z, (float, complex)) else 0.0
        return simplify_scalar(acc)

    def ratio_at(self, z):
        """P(z) as an unreduced integer pair (num, den) with den > 0, exact.

        z is an int, a Fraction or a float; the coefficients must be rational.
        With coeffs[j] = a_j / D and z = p/q, integer Horner
            t <- t*p + a_j * q^(n-j)
        gives P(z) = t / (D q^n).  For a power-of-two q (every float, every
        int) the powers are shifts.
        """
        form = self._integer_form()
        if form is None:
            raise TypeError("ratio_at needs rational coefficients")
        if isinstance(z, int):
            p, q = z, 1
        elif isinstance(z, (Fraction, float)):
            p, q = z.as_integer_ratio()
        else:
            raise TypeError("ratio_at needs an int, Fraction or float, got %r" % (z,))
        nums, common = form
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

    def _integer_form(self):
        """(numerators, D) with coeffs[j] == numerators[j] / D, cached; None
        when a coefficient is Gaussian."""
        if self._ints is None:
            if any(isinstance(c, GaussianRational) for c in self.coeffs):
                self._ints = False
            else:
                # lists, not generators: tuple(generator) is built oversized
                # and shrunk, stranding memory in the free list of another size
                dens = [c.denominator for c in self.coeffs]
                common = math.lcm(*dens)
                self._ints = ([c.numerator * (common // d)
                               for c, d in zip(self.coeffs, dens)], common)
        return self._ints or None

    def derivative(self):
        return Poly([j * c for j, c in enumerate(self.coeffs)][1:])

    def float_coeffs(self):
        """Ascending float (or complex) coefficients for numpy hand-off."""
        out = []
        for c in self.coeffs:
            if isinstance(c, GaussianRational):
                out.append(c.to_complex())
            else:
                out.append(float(c))
        return out

    # --- protocol -----------------------------------------------------
    def __eq__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "Poly(%s)" % (list(self.coeffs),)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            if j == 0:
                parts.append(str(c))
            elif j == 1:
                parts.append("%s*x" % (c,))
            else:
                parts.append("%s*x^%d" % (c, j))
        return " + ".join(parts)


def _as_poly(value):
    if isinstance(value, Poly):
        return value
    try:
        return Poly((_norm_coeff(value),))
    except TypeError:
        return NotImplemented
