"""Shared fixtures: small graphs and operand factories."""

from __future__ import annotations

import numpy as np
import pytest

from repro import settings
from repro.core import clear_plan_cache, clear_tune_cache
from repro.resilience import faults
from repro.sparse import COOMatrix, generators


@pytest.fixture(autouse=True)
def _cold_plan_cache():
    """Every test starts with a cold structural plan cache.

    Session-scoped graph fixtures are shared across tests, so without
    this a test asserting on the simulation pipeline (stage spans,
    trace contents) would observe a warm replay from an earlier test.
    Tests that want warm behaviour exercise it within their own body.
    """
    clear_plan_cache()
    clear_tune_cache()
    yield
    clear_plan_cache()
    clear_tune_cache()


@pytest.fixture(autouse=True)
def _fresh_settings():
    """Re-read the environment after each test.

    Settings are parsed once and cached; a test that changed a
    ``REPRO_*`` variable (its monkeypatch is undone before this runs)
    must not leak the cached value into the next test.
    """
    yield
    settings.reload()


@pytest.fixture()
def repro_env(monkeypatch):
    """Set ``REPRO_*`` variables for one test and reload the settings.

    ``repro_env(REPRO_OBS="off", REPRO_FAULT_SEED=None)`` sets the
    first and unsets the second; a malformed value raises
    :class:`~repro.errors.ConfigError` from the reload.
    """

    def apply(**values: str | None) -> settings.Settings:
        for name, value in values.items():
            if value is None:
                monkeypatch.delenv(name, raising=False)
            else:
                monkeypatch.setenv(name, value)
        return settings.reload()

    return apply


@pytest.fixture(autouse=True)
def _fresh_injector():
    """Re-read the fault profile and zero occurrence counters per test.

    The injector's fire schedule is a pure function of (seed, site,
    occurrence index); dropping the process injector makes each test
    resolve a fresh one, so it sees the same deterministic schedule
    regardless of test ordering.
    """
    faults._default = None
    yield
    faults._default = None


@pytest.fixture(scope="session")
def tiny_coo() -> COOMatrix:
    """The 4x4 example matrix from the paper's Fig. 1 neighborhood."""
    rows = np.array([0, 0, 1, 2, 2, 2, 3])
    cols = np.array([1, 3, 2, 0, 1, 3, 2])
    return COOMatrix.from_edges(4, 4, rows, cols)


@pytest.fixture(scope="session")
def small_graph() -> COOMatrix:
    """A small skewed graph big enough to span several warps."""
    return generators.power_law(500, 8.0, seed=42)


@pytest.fixture(scope="session")
def medium_graph() -> COOMatrix:
    """~40k-edge R-MAT graph: multiple CTAs, heavy skew."""
    return generators.rmat(10, 20, seed=7)


@pytest.fixture(scope="session")
def uniform_graph() -> COOMatrix:
    """Near-uniform degrees (road-like)."""
    return generators.road_grid(40, seed=3)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def make_operands(coo: COOMatrix, F: int, rng: np.random.Generator):
    """(edge_values, X, Xrow, x) operand bundle for kernel tests."""
    return (
        rng.standard_normal(coo.nnz),
        rng.standard_normal((coo.num_cols, F)),
        rng.standard_normal((coo.num_rows, F)),
        rng.standard_normal(coo.num_cols),
    )
