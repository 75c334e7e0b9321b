"""Work-partitioning math shared by kernels.

Edge-parallel kernels slice the NZE stream into fixed-size chunks (one
per warp).  The helpers here compute those assignments vectorized, plus
the segment structure (row splits) inside each slice that drives
reduction/atomic counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError


@dataclass(frozen=True)
class EdgeChunks:
    """Equal-size slices of the NZE stream (GNNOne Stage 1 units)."""

    chunk_size: int
    n_chunks: int
    #: chunk id of every NZE, shape (nnz,)
    chunk_of_nze: np.ndarray
    #: NZEs actually present in each chunk (last may be partial)
    chunk_sizes: np.ndarray


def edge_chunks(nnz: int, chunk_size: int) -> EdgeChunks:
    """Split ``nnz`` stream positions into ``chunk_size`` slices."""
    if chunk_size <= 0:
        raise ConfigError("chunk_size must be positive")
    n_chunks = max(1, (nnz + chunk_size - 1) // chunk_size)
    chunk_of = np.arange(nnz, dtype=np.int64) // chunk_size
    sizes = np.full(n_chunks, chunk_size, dtype=np.int64)
    if nnz:
        sizes[-1] = nnz - (n_chunks - 1) * chunk_size
    else:
        sizes[:] = 0
    return EdgeChunks(chunk_size, n_chunks, chunk_of, sizes)


def segments_in_slices(rows: np.ndarray, slice_ids: np.ndarray, n_slices: int) -> np.ndarray:
    """Distinct consecutive-row segments within each slice.

    A "segment" is a maximal run of equal row ids inside one slice; each
    segment is one atomic write in a running reduction, and one row whose
    features can be reused in SDDMM.
    """
    rows = np.asarray(rows)
    if rows.size == 0:
        return np.zeros(n_slices, dtype=np.int64)
    new_seg = np.ones(rows.size, dtype=bool)
    new_seg[1:] = (rows[1:] != rows[:-1]) | (slice_ids[1:] != slice_ids[:-1])
    return np.bincount(slice_ids[new_seg], minlength=n_slices).astype(np.int64)


def segments_in_interleaved_slices(
    rows: np.ndarray, slice_ids: np.ndarray, n_slices: int
) -> np.ndarray:
    """Segments per slice when a slice's members are *interleaved* in the
    stream (Round-robin): each slice processes its own members in stream
    order, so runs are counted within the per-slice subsequence.

    Equivalent to :func:`segments_in_slices` when slices are contiguous.
    """
    rows = np.asarray(rows)
    if rows.size == 0:
        return np.zeros(n_slices, dtype=np.int64)
    order = np.argsort(slice_ids, kind="stable")
    s_sorted = slice_ids[order]
    r_sorted = rows[order]
    new_seg = np.ones(rows.size, dtype=bool)
    new_seg[1:] = (r_sorted[1:] != r_sorted[:-1]) | (s_sorted[1:] != s_sorted[:-1])
    return np.bincount(s_sorted[new_seg], minlength=n_slices).astype(np.int64)


def round_robin_slice_ids(
    chunk_of_nze: np.ndarray, chunk_size: int, n_groups: int
) -> np.ndarray:
    """Thread-group id per NZE under the Round-robin policy.

    Within a chunk, position ``p`` goes to group ``p % n_groups`` —
    the alternative Listing-2 strategy the paper evaluates in Fig 10.
    """
    pos = np.arange(chunk_of_nze.size, dtype=np.int64) % chunk_size
    return chunk_of_nze * n_groups + (pos % n_groups)


def consecutive_slice_ids(
    chunk_of_nze: np.ndarray, chunk_size: int, n_groups: int
) -> np.ndarray:
    """Thread-group id per NZE under the Consecutive policy.

    Within a chunk, the first ``chunk_size/n_groups`` positions go to
    group 0, the next block to group 1, ... — the preferred policy.
    """
    per_group = max(1, chunk_size // n_groups)
    pos = np.arange(chunk_of_nze.size, dtype=np.int64) % chunk_size
    group = np.minimum(pos // per_group, n_groups - 1)
    return chunk_of_nze * n_groups + group
