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


def per_warp_counts(
    warp_ids: np.ndarray, n_warps: int, weights: np.ndarray | None = None
) -> np.ndarray:
    """Histogram ``warp_ids`` (optionally weighted) into ``n_warps`` bins."""
    return np.bincount(warp_ids, weights=weights, minlength=n_warps).astype(np.float64)


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


def gather_feature_sectors(
    indices: np.ndarray,
    warp_ids: np.ndarray,
    n_warps: int,
    feature_bytes: int,
    *,
    dedupe: bool = False,
    scattered: bool = False,
) -> np.ndarray:
    """Per-warp sectors for gathering feature rows of irregular indices.

    Parameters
    ----------
    indices:
        Row indices into the dense feature matrix, one per gather.
    warp_ids:
        The warp performing each gather (same length as ``indices``).
    feature_bytes:
        Bytes per feature row (``4 * F`` for float32).
    dedupe:
        If True, duplicate indices within a warp are loaded once (models
        explicit reuse, e.g. GNNOne's row-feature caching in SDDMM).
    scattered:
        If True, the kernel reads the row with per-thread scalar loads at
        non-contiguous addresses (e.g. column-major access or a
        transposed operand without vectorization): every 4-byte element
        costs a full sector.  This is how CuSparse's slow SDDMM and other
        non-feature-parallel designs lose an order of magnitude.
    """
    if scattered:
        per_row = feature_bytes / 4.0  # one sector per 4B element
    else:
        per_row = feature_row_sectors(feature_bytes)
    if dedupe:
        rows = unique_per_warp(warp_ids, indices, n_warps)
    else:
        rows = per_warp_counts(np.asarray(warp_ids, dtype=np.int64), n_warps)
    return rows * per_row


def scatter_write_sectors(
    indices: np.ndarray,
    warp_ids: np.ndarray,
    n_warps: int,
    value_bytes: int,
    *,
    dedupe: bool = True,
) -> np.ndarray:
    """Per-warp sectors for writing values at irregular indices.

    Writes are write-back through L2 at sector granularity; duplicate
    target rows within a warp coalesce when ``dedupe`` (the common case
    for SpMM running reduction writing one partial per row segment).
    """
    per_row = max(1.0, np.ceil(value_bytes / SECTOR_BYTES))
    if dedupe:
        rows = unique_per_warp(warp_ids, indices, n_warps)
    else:
        rows = per_warp_counts(np.asarray(warp_ids, dtype=np.int64), n_warps)
    return rows * per_row


def segment_sectors_from_addresses(
    byte_addrs: np.ndarray, warp_ids: np.ndarray, n_warps: int
) -> np.ndarray:
    """Exact sector count per warp for arbitrary 4-byte accesses.

    The fully general path: map each access to its sector id and count
    distinct (warp, sector) pairs.  Used by tests to validate the closed
    forms above and by kernels with genuinely irregular address streams.
    """
    sector_ids = np.asarray(byte_addrs, dtype=np.int64) // SECTOR_BYTES
    return unique_per_warp(np.asarray(warp_ids, dtype=np.int64), sector_ids, n_warps)
