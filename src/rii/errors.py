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
    """A zero is not real, on exact evidence; no real quadrature rule exists."""


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
