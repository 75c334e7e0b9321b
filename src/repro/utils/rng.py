"""Deterministic random-number management.

All stochastic components (graph generators, feature/label synthesis,
dropout, weight init) take an explicit seed or Generator so every
experiment in the paper reproduction is bit-reproducible run-to-run.
"""

from __future__ import annotations

import numpy as np

_DEFAULT_SEED = 0x6E4E4F4E  # "nNON"


def default_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return a Generator; ``None`` maps to the package-wide fixed seed."""
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = _DEFAULT_SEED
    return np.random.default_rng(seed)
