"""Shared fixtures for the test suite.

Fixtures provide small, deterministic instances/probes so individual
test modules stay focused on behaviour, not setup.  Anything larger
than a few thousand DP cells belongs in ``benchmarks/``, not here.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings

# Hypothesis profiles: the default keeps the suite fast; set
# REPRO_SLOW_TESTS=1 for a deeper property-testing pass (more examples
# per property, same invariants).
settings.register_profile(
    "fast", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.register_profile(
    "thorough",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=300,
)
settings.load_profile(
    "thorough" if os.environ.get("REPRO_SLOW_TESTS") else "fast"
)

from repro.core.instance import Instance, uniform_instance
from repro.core.rounding import round_instance


@pytest.fixture
def tiny_instance() -> Instance:
    """Eight jobs, three machines — hand-checkable."""
    return Instance(times=(27, 19, 19, 15, 12, 8, 8, 5), machines=3)


@pytest.fixture
def small_instance() -> Instance:
    """Seeded 12-job instance used across integration tests."""
    return uniform_instance(12, 3, low=1, high=50, seed=42)


@pytest.fixture
def medium_instance() -> Instance:
    """Seeded 25-job instance whose probes produce multi-dim tables."""
    return uniform_instance(25, 4, low=5, high=60, seed=3)


@pytest.fixture
def medium_probe(medium_instance):
    """A rounding of ``medium_instance``: a 7-dim, 2304-cell DP-table."""
    return round_instance(medium_instance, 80, 0.3)


@pytest.fixture
def small_probe(small_instance):
    """A rounding of ``small_instance`` — a few hundred DP cells."""
    return round_instance(small_instance, 60, 0.3)


# -- relaxation loop paths ------------------------------------------------------
#
# The DP kernels run their rounds in the compiled loop of
# ``repro.core.native`` when it builds, else in the NumPy loop.  These
# fixtures substitute the process-wide loader so a suite runs on one
# path or the other.

#: A compiler command that cannot exist: the loader's build fails.
MISSING_COMPILER = "/nonexistent/repro-test-cc"


@pytest.fixture(scope="session")
def compiled_loop():
    """The process's compiled loop; skips where no C compiler builds it."""
    from repro.core import native

    loop = native.default_loop()
    active, detail = loop.status()
    if not active:
        pytest.skip(f"compiled relaxation loop unavailable: {detail}")
    return loop


def _install_loop(loop):
    from repro.core import native

    previous = native.set_default_loop(loop)
    try:
        yield loop
    finally:
        native.set_default_loop(previous)


@pytest.fixture(scope="module")
def compiled_relax(compiled_loop):
    """Run the module's fills in the compiled loop."""
    yield from _install_loop(compiled_loop)


@pytest.fixture(scope="module")
def numpy_relax():
    """Run the module's fills in the NumPy loop: the loader's build fails."""
    from repro.core.native import NativeLoop

    yield from _install_loop(NativeLoop(compiler=MISSING_COMPILER))
