"""Merge-path coordinates (Merrill & Garland's Merge-SpMV [27]).

Merge-SpMV views SpMV as a merge of the row-offset list with the NZE
stream: splitting the merge path into equal diagonals gives every thread
an equal share of (rows + NZEs) work.  The "custom format" is the set of
per-thread merge coordinates (a row index and an NZE index), searched
with a 2-D binary search at kernel start — the metadata broadcast +
online search overhead the paper weighs against COO's extra 4-byte row
id per NZE (Section 5.4.5, Fig 12).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.sparse.csr import CSRMatrix


@dataclass(frozen=True)
class MergePathFormat:
    """CSR plus per-partition merge coordinates."""

    csr: CSRMatrix
    items_per_partition: int
    #: starting row of each partition
    start_row: np.ndarray
    #: starting NZE of each partition
    start_nze: np.ndarray


def build_merge_path(csr: CSRMatrix, items_per_partition: int) -> MergePathFormat:
    """Compute merge-path split points (vectorized 2-D binary search).

    The merge path consumes one "item" per row boundary and one per NZE;
    diagonal ``d`` splits at the point where ``row_end + nze`` first
    reaches ``d`` subject to the merge order.
    """
    if items_per_partition <= 0:
        raise ConfigError("items_per_partition must be positive")
    total_items = csr.num_rows + csr.nnz
    n_parts = max(1, (total_items + items_per_partition - 1) // items_per_partition)
    diagonals = np.arange(n_parts, dtype=np.int64) * items_per_partition
    # On diagonal d we need the largest row r with indptr[r] + r <= d.
    # `indptr + arange` is sorted, so a vectorized searchsorted works.
    key = csr.indptr + np.arange(csr.num_rows + 1, dtype=np.int64)
    start_row = np.searchsorted(key, diagonals, side="right") - 1
    start_row = np.clip(start_row, 0, csr.num_rows)
    start_nze = diagonals - start_row
    start_nze = np.clip(start_nze, 0, csr.nnz)
    return MergePathFormat(
        csr=csr,
        items_per_partition=items_per_partition,
        start_row=start_row.astype(np.int64),
        start_nze=start_nze.astype(np.int64),
    )
