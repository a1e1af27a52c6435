"""Smoke runs of the randomized identity suites (full runs live in acceptance)."""

import pytest

from rii import run_suite
from rii.suites import (
    SUITES,
    random_perturbation,
    random_rational,
    random_scheme,
    suite_oprl,
)


def test_registry_names():
    assert set(SUITES) == {"structural", "transfer", "spectral", "oprl"}
    with pytest.raises(ValueError):
        run_suite("nonsense")


def test_small_runs_are_clean():
    for name in ("structural", "transfer"):
        result = run_suite(name, seed=123, instances=8)
        assert result.ok(), result.failures[:2]
        assert result.instances == 8
        assert "8 instances, 0 failures" in result.summary()


def test_spectral_small_run():
    result = run_suite("spectral", seed=5, instances=4)
    assert result.ok(), result.failures[:2]


def test_oprl_small_run():
    result = suite_oprl(seed=11, instances=6)
    assert result.ok(), result.failures[:2]


def test_generators_respect_constraints():
    import random

    rng = random.Random(0)
    for _ in range(50):
        q = random_rational(rng, nonzero=True)
        assert q != 0
        q = random_rational(rng, positive=True)
        assert q > 0
    for i in range(12):
        scheme = random_scheme(rng, 10)
        assert scheme.kind in ("general", "special", "oprl")
        assert scheme.lam(3) > 0
        pert = random_perturbation(rng, 8)
        assert pert.max_level() <= 8
        if pert.kp is not None:
            assert pert.kp >= 1 and pert.nu > 0
        if pert.k is not None and pert.kp is not None:
            assert pert.k <= pert.kp


def test_deterministic_given_seed():
    a = run_suite("structural", seed=42, instances=5)
    b = run_suite("structural", seed=42, instances=5)
    assert a.instances == b.instances
    assert a.failures == b.failures == []


def test_spectral_skips_an_identically_singular_instance():
    # Instance 10 of this seed draws kp = 2 with rho_1 rho_2 (z - c_1)(z - c_2)
    # == lam_2 W_2(z): the plain depth-3 convergent has a pole at every z.
    from rii.cfrac import singular_index
    from rii.schemes import CoefficientScheme

    result = run_suite("spectral", seed=1555393582, instances=11)
    assert result.ok(), result.failures[:2]
    [record] = result.skipped
    assert record["instance"] == 10 and record["depth"] == 3
    assert record["pole_index"] == {"perturbed": None, "plain": 1}
    scheme = CoefficientScheme.from_dict(record["scheme"])
    assert singular_index(scheme, None, 3) == 1
    assert singular_index(scheme, None, 4) is None
    # every other instance checked all of its z
    assert result.points == 10 * 20
