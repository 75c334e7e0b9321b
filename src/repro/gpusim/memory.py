"""Global-memory coalescing model: 32-byte-sector math.

NVIDIA GPUs service global loads in 32-byte sectors.  A warp-wide access
to 32 consecutive 4-byte words moves exactly 4 sectors (128 B); a fully
scattered warp access can touch up to 32 sectors for the same 128 B of
useful data.  Every kernel in this reproduction expresses its loads/stores
through the helpers below, which compute *exact* per-warp sector counts
from the real index arrays (vectorized with NumPy), so coalescing quality
is measured, not asserted.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.device import SECTOR_BYTES
from repro.utils.arrays import sorted_distinct


def streaming_sectors(num_elements: int | np.ndarray, elem_bytes: int) -> np.ndarray:
    """Sectors for a fully coalesced contiguous stream of ``num_elements``.

    This models Stage-1 style loads where consecutive threads read
    consecutive array slots (NZE tuples, edge features): the transferred
    bytes are exactly the useful bytes, rounded up to sector granularity.
    """
    n = np.asarray(num_elements, dtype=np.float64)
    return np.ceil(n * elem_bytes / SECTOR_BYTES)


def per_warp_counts(warp_ids: np.ndarray, n_warps: int) -> np.ndarray:
    """Histogram ``warp_ids`` into ``n_warps`` bins."""
    return np.bincount(warp_ids, minlength=n_warps).astype(np.float64)


def unique_per_warp(
    warp_ids: np.ndarray, keys: np.ndarray, n_warps: int
) -> np.ndarray:
    """Count distinct ``keys`` per warp.

    Used for data-reuse accounting: when a kernel explicitly caches a
    value (row features in GNNOne SDDMM, NZEs in Stage 1), repeated
    occurrences of the same key inside one warp cost one load.
    """
    if len(keys) == 0:
        return np.zeros(n_warps, dtype=np.float64)
    warp_ids = np.asarray(warp_ids, dtype=np.int64)
    keys = np.asarray(keys, dtype=np.int64)
    combined = warp_ids * (keys.max() + 1) + keys
    uniq = sorted_distinct(combined)
    return per_warp_counts((uniq // (keys.max() + 1)).astype(np.int64), n_warps)


def feature_row_sectors(feature_bytes: int) -> float:
    """Sectors moved when one feature row is read with aligned vector loads.

    Feature matrices are row-major and rows are loaded row-wise
    (feature-parallel), so a row of ``F`` floats costs ``ceil(4F/32)``
    sectors — full coalescing as long as the whole row is consumed.
    """
    return float(int(np.ceil(feature_bytes / SECTOR_BYTES)))
