"""Shared-memory model: capacity accounting and bank conflicts.

Stage 1 of GNNOne caches NZEs (and edge features for SpMM) in shared
memory.  The capacity cost feeds the occupancy calculator; the bank
model prices the (rare) conflicted access patterns of baselines that
materialize partial dot products in shared memory (Dalton-style
nonzero-split SpMV, Yang's SpMM variant).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.utils.arrays import sorted_distinct

#: Shared memory is organized as 32 banks of 4-byte words.
NUM_BANKS = 32
BANK_WIDTH_BYTES = 4


def stage1_cache_bytes(cache_size: int, *, with_edge_feature: bool) -> int:
    """Shared-memory bytes one warp's Stage-1 cache occupies.

    Each cached NZE stores its (row, col) pair as two 4-byte integers;
    SpMM additionally caches the scalar edge feature (4 bytes).
    """
    if cache_size <= 0 or cache_size % 32:
        raise ConfigError(f"CACHE_SIZE must be a positive multiple of 32, got {cache_size}")
    per_nze = 8 + (4 if with_edge_feature else 0)
    return cache_size * per_nze


def bank_conflict_factor(word_offsets: np.ndarray) -> float:
    """Serialization factor for one warp-wide shared-memory access.

    ``word_offsets`` are the 4-byte word indices the 32 lanes touch.
    The access replays once per maximum bank collision count; a
    conflict-free access returns 1.0 and a fully colliding one 32.0.
    Broadcasts (all lanes, same word) are free on modern parts.
    """
    offsets = np.asarray(word_offsets, dtype=np.int64)
    if offsets.size == 0:
        return 1.0
    # Broadcast detection: identical words do not conflict, so the
    # replay count is the most distinct words any one bank serves.
    words = sorted_distinct(offsets)
    return float(max(int(np.bincount(words % NUM_BANKS).max()), 1))


def strided_conflict_factor(stride_words: int) -> float:
    """Closed-form conflict factor for a constant-stride warp access.

    Equals ``gcd(stride, 32)`` distinct replays collapsing onto
    ``32/gcd`` banks — e.g. stride 1 is conflict-free, stride 32 is a
    32-way conflict (classic column access of a 32-wide tile).
    """
    if stride_words <= 0:
        raise ConfigError("stride must be positive")
    return float(np.gcd(stride_words, NUM_BANKS))
