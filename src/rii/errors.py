"""Exception types shared across the package.

Every error that callers are expected to catch derives from RiiError, so the
CLI can map "domain" failures to a single exit code while real bugs still
surface as ordinary exceptions.
"""


class RiiError(Exception):
    """Base class for expected domain errors."""


class SchemeIndexError(RiiError):
    """A tabulated coefficient scheme was queried past its table."""

    def __init__(self, name, index, size):
        self.name = name
        self.index = index
        self.size = size
        super().__init__(
            "coefficient '%s' queried at index %d but only %d entries are tabulated"
            % (name, index, size)
        )


class PerturbationError(RiiError):
    """Invalid perturbation record (e.g. co-dilation below index 1, nu <= 0)."""


class PoleError(RiiError):
    """A continued-fraction denominator vanished in exact mode."""

    def __init__(self, index=None, message=None):
        self.index = index
        if message is None:
            if index is None:
                message = "homography denominator vanished"
            else:
                message = "continued fraction hits a pole at coefficient index %d" % index
        super().__init__(message)


class SingularReductionError(RiiError):
    """The OPRL reduction map degenerates (alpha - gamma*c_n = 0 at some n)."""

    def __init__(self, n):
        self.n = n
        super().__init__("reduction is singular: alpha - gamma*c_n vanishes at n = %d" % n)


class ComplexZerosError(RiiError):
    """Root extraction found zeros off the real line; quadrature is aborted.

    `pairs` lists the non-real zeros found; a refusal on exact evidence alone
    (a non-real coefficient ratio) lists none and carries its own message.
    """

    def __init__(self, pairs, message=None):
        self.pairs = list(pairs)
        if message is None:
            shown = ", ".join("%.6g%+.6gj" % (z.real, z.imag) for z in self.pairs)
            message = ("%d complex zero(s) detected, no real quadrature rule exists: %s"
                       % (len(self.pairs), shown))
        super().__init__(message)


class DegeneracyError(RiiError):
    """A weight/calibration denominator vanished (node not simple, etc.)."""


class ParseError(RiiError):
    """Integrand expression rejected; carries the character position."""

    def __init__(self, message, pos):
        self.pos = pos
        super().__init__("%s (position %d)" % (message, pos))


class IntegrandError(RiiError, ValueError):
    """An integrand failed, or gave a complex or non-finite value, at a node.

    Also a ValueError, so callers that catch ValueError for a bad integrand
    value keep working.
    """
