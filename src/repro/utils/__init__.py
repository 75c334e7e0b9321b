"""Shared utilities: validation helpers, array helpers, RNG management."""

from repro.utils.arrays import sorted_distinct
from repro.utils.validation import check_array, check_in
from repro.utils.rng import default_rng

__all__ = [
    "check_array",
    "check_in",
    "default_rng",
    "sorted_distinct",
]
