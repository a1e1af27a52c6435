"""2x2 matrices of exact polynomials.

These carry the recurrence step matrices, their products (F-matrices), the
perturbation transfer matrices, and homography coefficient matrices.  Two
related but distinct companions of a matrix show up downstream and are easy to
conflate:

* adjugate():        adj(M) = [[d, -b], [-c, a]],  with adj(M)*M = det(M)*I —
                     the matrix that inverts (used for homography inversion).
* cofactor_matrix(): cof(M) = [[d, -c], [-b, a]] = adj(M)^T — the matrix whose
                     entries drive the spectral-transformation formulas.

Both are provided; pick deliberately.
"""

from __future__ import annotations

from .poly import Poly, _as_poly


def _entry(value):
    p = _as_poly(value)
    if p is NotImplemented:
        raise TypeError("matrix entries must be polynomials or exact scalars")
    return p


class PolyMatrix2:
    __slots__ = ("a11", "a12", "a21", "a22")

    def __init__(self, a11, a12, a21, a22):
        self.a11 = _entry(a11)
        self.a12 = _entry(a12)
        self.a21 = _entry(a21)
        self.a22 = _entry(a22)

    @staticmethod
    def identity():
        return PolyMatrix2(Poly.one(), Poly.zero(), Poly.zero(), Poly.one())

    def entries(self):
        return (self.a11, self.a12, self.a21, self.a22)

    def __matmul__(self, other):
        if not isinstance(other, PolyMatrix2):
            return NotImplemented
        return PolyMatrix2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def __add__(self, other):
        if not isinstance(other, PolyMatrix2):
            return NotImplemented
        return PolyMatrix2(
            self.a11 + other.a11,
            self.a12 + other.a12,
            self.a21 + other.a21,
            self.a22 + other.a22,
        )

    def __sub__(self, other):
        if not isinstance(other, PolyMatrix2):
            return NotImplemented
        return PolyMatrix2(
            self.a11 - other.a11,
            self.a12 - other.a12,
            self.a21 - other.a21,
            self.a22 - other.a22,
        )

    def scale(self, factor):
        """Multiply every entry by a Poly or exact scalar."""
        f = _entry(factor)
        return PolyMatrix2(f * self.a11, f * self.a12, f * self.a21, f * self.a22)

    def det(self):
        return self.a11 * self.a22 - self.a12 * self.a21

    def transpose(self):
        return PolyMatrix2(self.a11, self.a21, self.a12, self.a22)

    def adjugate(self):
        """adj(M): satisfies adj(M) @ M = M @ adj(M) = det(M) * I."""
        return PolyMatrix2(self.a22, -self.a12, -self.a21, self.a11)

    def cofactor_matrix(self):
        """cof(M) = adj(M)^T: the entrywise cofactors in place."""
        return PolyMatrix2(self.a22, -self.a21, -self.a12, self.a11)

    def is_zero(self):
        return all(p.is_zero() for p in self.entries())

    def eval_at(self, z):
        """Evaluate all four entries at z; returns a 2x2 nested tuple."""
        return (
            (self.a11(z), self.a12(z)),
            (self.a21(z), self.a22(z)),
        )

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix2):
            return NotImplemented
        return self.entries() == other.entries()

    def __hash__(self):
        return hash(self.entries())

    def __repr__(self):
        return "PolyMatrix2(%r, %r, %r, %r)" % self.entries()
