"""Benchmark-suite configuration.

Every benchmark regenerates one of the paper's tables/figures.  Full
sweeps (the exact dataset list of the paper) are expensive; by default
the suite runs the quick subset.  Pass ``--full`` to sweep everything
Figs 3-4 style (minutes, matches EXPERIMENTS.md).
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption("--full", action="store_true",
                     help="run the paper's full sweeps instead of the quick subset")


@pytest.fixture(autouse=True, scope="session")
def _cold_plan_cache():
    """Benchmarks start from a cold structural plan cache.

    Within the session the cache stays warm on purpose: figure sweeps
    revisit the same launch structures and should benefit, exactly as
    a paper-regeneration run would.
    """
    from repro.core import clear_plan_cache

    clear_plan_cache()
    yield


@pytest.fixture(scope="session")
def quick_mode(request) -> bool:
    return not request.config.getoption("--full")


@pytest.fixture(scope="session")
def experiment_cache() -> dict:
    """Share experiment results across benchmark and assertion phases."""
    return {}


def run_cached(cache: dict, exp_id: str, quick: bool):
    from repro.bench import run_experiment

    key = (exp_id, quick)
    if key not in cache:
        cache[key] = run_experiment(exp_id, quick=quick)
    return cache[key]
