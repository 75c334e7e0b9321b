"""Neighbor-group custom format (GNNAdvisor [37], Huang et al. [20]).

A preprocessing pass splits every row into groups of at most
``group_size`` (=32) non-zero columns and emits per-group metadata: the
owning row id and the group's length.  One warp then handles one group.

The paper's critique, which the kernels built on this format reproduce:

* rows are rarely multiples of 32, so tail groups are short — residual
  imbalance and idle lanes remain;
* the cache size is pinned at 32 (one group) and cannot grow with the
  hardware the way GNNOne's Stage-1 CACHE_SIZE can;
* the metadata must be loaded by a few threads and broadcast, adding a
  synchronization the COO row-id load avoids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.sparse.csr import CSRMatrix


@dataclass(frozen=True)
class NeighborGroupFormat:
    """CSR plus per-group (row, start, length) metadata."""

    csr: CSRMatrix
    group_size: int
    group_row: np.ndarray  # owning row of each group
    group_start: np.ndarray  # offset of the group's first NZE
    group_len: np.ndarray  # NZEs in the group (<= group_size)

    @property
    def n_groups(self) -> int:
        return int(self.group_row.shape[0])


def build_neighbor_groups(csr: CSRMatrix, group_size: int = 32) -> NeighborGroupFormat:
    """Preprocess a CSR matrix into neighbor groups (vectorized)."""
    if group_size <= 0:
        raise ConfigError("group_size must be positive")
    deg = csr.row_degrees()
    groups_per_row = (deg + group_size - 1) // group_size
    n_groups = int(groups_per_row.sum())
    group_row = np.repeat(np.arange(csr.num_rows, dtype=np.int32), groups_per_row)
    # Offset of each group within its row: 0, gs, 2*gs, ...
    first_group = np.zeros(csr.num_rows + 1, dtype=np.int64)
    np.cumsum(groups_per_row, out=first_group[1:])
    within = np.arange(n_groups, dtype=np.int64) - first_group[group_row]
    group_start = csr.indptr[group_row] + within * group_size
    group_len = np.minimum(deg[group_row] - within * group_size, group_size).astype(np.int32)
    return NeighborGroupFormat(
        csr=csr,
        group_size=group_size,
        group_row=group_row,
        group_start=group_start,
        group_len=group_len,
    )
