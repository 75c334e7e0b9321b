"""Shared utilities: validation helpers, array helpers, RNG management."""

from repro.utils.arrays import sorted_distinct
from repro.utils.validation import (
    check_array,
    check_dtype,
    check_in,
    check_nonneg,
    check_positive,
    check_shape,
)
from repro.utils.rng import default_rng, spawn_rng

__all__ = [
    "check_array",
    "check_dtype",
    "check_in",
    "check_nonneg",
    "check_positive",
    "check_shape",
    "default_rng",
    "sorted_distinct",
    "spawn_rng",
]
