"""Shared fixtures plus the acceptance summary printed at the end of a run."""

import pytest

from rii import CoefficientScheme, cauchy_scheme
from rii.suites import random_rational, random_scheme

_CRITERIA = []


def record_criterion(number, label, passed, detail=""):
    """Collect one acceptance verdict; the terminal summary prints them all."""
    _CRITERIA.append((number, label, bool(passed), detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for number, label, passed, detail in sorted(_CRITERIA):
        line = "criterion %2d  %-46s %s" % (number, label,
                                            "PASS" if passed else "FAIL")
        if detail:
            line += "  [%s]" % detail
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def cauchy():
    """The worked scheme: rho = 1, c = 0, lambda = 1/4, W = x^2 + 1."""
    return cauchy_scheme()


def _scheme_of_kind(rng, kind):
    """random_scheme(rng, 16, kind), or a general scheme with complex nodes:
    "gaussian" nodes are never conjugate, so W_m(z) is not real at a real z;
    "mixed" nodes are not conjugate at some indices and conjugate or real at
    the others, so one family has both kinds of step."""
    if kind not in ("gaussian", "mixed"):
        return random_scheme(rng, 16, kind)
    real = random_scheme(rng, 16, "oprl")
    nodes = []
    for _ in range(16):
        re, im = random_rational(rng), random_rational(rng, nonzero=True)
        if kind == "gaussian" or rng.random() < 0.5:
            nodes.append(([re, im], [random_rational(rng), random_rational(rng)]))
        elif rng.random() < 0.5:
            nodes.append(([re, im], [re, -im]))
        else:
            nodes.append((re, random_rational(rng)))
    return CoefficientScheme.general([real.rho(m) for m in range(16)],
                                     [real.c(m) for m in range(16)],
                                     [real.lam(m) for m in range(16)], nodes)


@pytest.fixture(scope="session")
def scheme_of_kind():
    """The random scheme builder `_scheme_of_kind(rng, kind)`."""
    return _scheme_of_kind
