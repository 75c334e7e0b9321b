"""Shared-memory model: capacity accounting.

Stage 1 of GNNOne caches NZEs (and edge features for SpMM) in shared
memory.  The capacity cost feeds the occupancy calculator.
"""

from __future__ import annotations

from repro.errors import ConfigError


def stage1_cache_bytes(cache_size: int, *, with_edge_feature: bool) -> int:
    """Shared-memory bytes one warp's Stage-1 cache occupies.

    Each cached NZE stores its (row, col) pair as two 4-byte integers;
    SpMM additionally caches the scalar edge feature (4 bytes).
    """
    if cache_size <= 0 or cache_size % 32:
        raise ConfigError(f"CACHE_SIZE must be a positive multiple of 32, got {cache_size}")
    per_nze = 8 + (4 if with_edge_feature else 0)
    return cache_size * per_nze
