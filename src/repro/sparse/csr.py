"""CSR (compressed sparse row) matrix — the baselines' format.

DGL's SpMM, dgSparse/dgNN, GE-SpMM, FeatGraph, CuSparse and the
vertex-parallel designs all consume CSR.  Keeping both COO and CSR alive
simultaneously (as DGL does) is exactly the memory cost the paper's
single-format argument removes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import FormatError, GraphValidationError
from repro.utils.validation import check_array


@dataclass
class CSRMatrix:
    """Sparse matrix topology in CSR format."""

    num_rows: int
    num_cols: int
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self) -> None:
        self.indptr = check_array(self.indptr, "indptr", ndim=1).astype(np.int64, copy=False)
        self.indices = check_array(self.indices, "indices", ndim=1).astype(np.int32, copy=False)
        if self.indptr.shape[0] != self.num_rows + 1:
            raise FormatError(
                f"indptr length {self.indptr.shape[0]} != num_rows+1 ({self.num_rows + 1})"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.shape[0]:
            raise GraphValidationError(
                f"indptr must start at 0 and end at nnz ({self.indices.shape[0]}), "
                f"got [{int(self.indptr[0])}, ..., {int(self.indptr[-1])}]"
            )
        drops = np.diff(self.indptr) < 0
        if np.any(drops):
            r = int(np.argmax(drops))
            raise GraphValidationError(
                f"indptr must be non-decreasing; decreases at row {r} "
                f"({int(self.indptr[r])} -> {int(self.indptr[r + 1])})"
            )
        if self.indices.size:
            bad = (self.indices < 0) | (self.indices >= self.num_cols)
            if bad.any():
                e = int(np.argmax(bad))
                raise GraphValidationError(
                    f"column index {int(self.indices[e])} out of range "
                    f"[0, {self.num_cols}) at nze {e}",
                    edge_index=e,
                )

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    def row_degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def __repr__(self) -> str:  # pragma: no cover - the default prints both arrays
        return f"CSRMatrix({self.num_rows}x{self.num_cols}, nnz={self.nnz})"
