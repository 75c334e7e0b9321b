"""COO (coordinate list) sparse matrix — GNNOne's single storage format.

Following the paper (and cuSPARSE's convention it cites), the COO is
stored *in the CSR way*: entries sorted by row id, ties by column id.
That ordering is what makes the Consecutive scheduling policy profitable
— consecutive NZEs assigned to one thread group usually share a row, so
SDDMM can reuse the row's vertex features and SpMM can keep a
thread-local running reduction until a row split.

Only the topology lives here; edge-level tensors (the ``|E| x 1`` values)
are separate arrays, as in Fig. 1 of the paper, because they are training
state while the topology is static.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import FormatError, GraphValidationError
from repro.utils.validation import check_array

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sparse.csr import CSRMatrix

INDEX_DTYPE = np.int32


@dataclass
class COOMatrix:
    """Sparse matrix topology in coordinate format.

    Attributes
    ----------
    num_rows, num_cols:
        Dense shape; for graphs both equal ``|V|``.
    rows, cols:
        Row/column id of each NZE, int32, CSR-ordered.
    """

    num_rows: int
    num_cols: int
    rows: np.ndarray
    cols: np.ndarray
    # Structural memos (the topology is immutable by convention: nothing
    # in the package writes to rows/cols after construction).
    _structure_token: str | None = field(default=None, init=False, repr=False, compare=False)
    _csr_perm: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _csr_sorted: "COOMatrix | None" = field(default=None, init=False, repr=False, compare=False)
    _csr_ordered: bool | None = field(default=None, init=False, repr=False, compare=False)
    _csr_arrays: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _csr: "CSRMatrix | None" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.rows = check_array(self.rows, "rows", ndim=1).astype(INDEX_DTYPE, copy=False)
        self.cols = check_array(self.cols, "cols", ndim=1).astype(INDEX_DTYPE, copy=False)
        if self.rows.shape != self.cols.shape:
            raise FormatError(
                f"rows/cols length mismatch: {self.rows.shape} vs {self.cols.shape}"
            )
        if self.num_rows < 0 or self.num_cols < 0:
            raise FormatError("matrix dimensions must be non-negative")
        if self.nnz:
            # Validate eagerly at the construction boundary — a bad index
            # that once surfaced as an IndexError deep inside a scipy
            # call now names the offending edge up front.
            bad = (self.rows < 0) | (self.rows >= self.num_rows)
            if bad.any():
                e = int(np.argmax(bad))
                raise GraphValidationError(
                    f"row index {int(self.rows[e])} out of range "
                    f"[0, {self.num_rows}) at edge {e}",
                    edge_index=e,
                )
            bad = (self.cols < 0) | (self.cols >= self.num_cols)
            if bad.any():
                e = int(np.argmax(bad))
                raise GraphValidationError(
                    f"column index {int(self.cols[e])} out of range "
                    f"[0, {self.num_cols}) at edge {e}",
                    edge_index=e,
                )

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Non-zero element count (== edge count |E|)."""
        return int(self.rows.shape[0])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.num_rows, self.num_cols)

    @property
    def structure_token(self) -> str:
        """Collision-safe fingerprint of the topology, computed once.

        Keys the structural plan cache (:mod:`repro.core.plancache`):
        shape and nnz in the clear plus a BLAKE2b digest of the raw
        ``rows``/``cols`` bytes, so two matrices share a token iff they
        describe the same NZE sequence.
        """
        if self._structure_token is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(np.ascontiguousarray(self.rows).tobytes())
            h.update(np.ascontiguousarray(self.cols).tobytes())
            self._structure_token = (
                f"{self.num_rows}x{self.num_cols}:{self.nnz}:{h.hexdigest()}"
            )
        return self._structure_token

    def is_csr_ordered(self) -> bool:
        """True if entries are sorted by (row, col) — the cuSPARSE COO rule."""
        if self._csr_ordered is None:
            if self.nnz <= 1:
                self._csr_ordered = True
            else:
                r, c = self.rows.astype(np.int64), self.cols.astype(np.int64)
                key = r * (self.num_cols + 1) + c
                self._csr_ordered = bool(np.all(key[1:] >= key[:-1]))
        return self._csr_ordered

    def csr_order(self) -> np.ndarray:
        """Memoized (row, col) lexsort permutation of the NZEs."""
        if self._csr_perm is None:
            self._csr_perm = np.lexsort((self.cols, self.rows))
        return self._csr_perm

    def sort_csr_order(self) -> "COOMatrix":
        """The matrix sorted by (row, col), computed at most once.

        Already-ordered matrices return themselves; otherwise the sorted
        copy is memoized so repeated kernel launches on the same
        unsorted topology pay the lexsort exactly once.
        """
        if self.is_csr_ordered():
            return self
        if self._csr_sorted is None:
            order = self.csr_order()
            sorted_coo = COOMatrix(
                self.num_rows, self.num_cols, self.rows[order], self.cols[order]
            )
            sorted_coo._csr_ordered = True
            sorted_coo._csr_sorted = sorted_coo
            self._csr_sorted = sorted_coo
        return self._csr_sorted

    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Memoized CSR structural view: ``(indptr, cols, perm)``.

        ``perm`` is the CSR-order permutation to apply to per-NZE value
        arrays (``None`` when the COO is already CSR-ordered).  Purely
        value-independent, so every launch on this topology shares one
        copy — the warm-path numerics build a scipy CSR around these
        arrays without re-deriving row pointers per call.
        """
        if self._csr_arrays is None:
            coo = self.sort_csr_order()
            counts = np.bincount(coo.rows, minlength=self.num_rows)
            indptr = np.zeros(self.num_rows + 1, dtype=INDEX_DTYPE)
            np.cumsum(counts, out=indptr[1:], dtype=INDEX_DTYPE)
            perm = None if self.is_csr_ordered() else self.csr_order()
            self._csr_arrays = (indptr, coo.cols, perm)
        return self._csr_arrays

    # ------------------------------------------------------------------
    def row_degrees(self) -> np.ndarray:
        """Row lengths (vertex out-degrees), length ``num_rows``."""
        return np.bincount(self.rows, minlength=self.num_rows).astype(np.int64)

    def row_splits_in_chunks(self, chunk: int) -> np.ndarray:
        """Distinct rows in each consecutive chunk of ``chunk`` NZEs.

        Drives the running-reduction accounting: each distinct row in a
        thread group's slice costs one atomic write-back.
        """
        if chunk <= 0:
            raise FormatError("chunk must be positive")
        if self.nnz == 0:
            return np.zeros(0, dtype=np.int64)
        n_chunks = (self.nnz + chunk - 1) // chunk
        chunk_ids = np.arange(self.nnz) // chunk
        # A new segment starts at position 0 of a chunk or at a row change.
        new_seg = np.ones(self.nnz, dtype=bool)
        new_seg[1:] = (self.rows[1:] != self.rows[:-1]) | (chunk_ids[1:] != chunk_ids[:-1])
        return np.bincount(chunk_ids[new_seg], minlength=n_chunks).astype(np.int64)

    # ------------------------------------------------------------------
    def to_csr(self) -> "CSRMatrix":
        """Memoized :class:`CSRMatrix` over :meth:`csr_arrays`, validated once.

        Shared by every caller (the CSR baselines and format builders
        only read it), and its ``indices`` are this topology's sorted
        ``cols``.
        """
        if self._csr is None:
            from repro.sparse.csr import CSRMatrix

            indptr, cols, _ = self.csr_arrays()
            self._csr = CSRMatrix(self.num_rows, self.num_cols, indptr, cols)
        return self._csr

    def to_scipy(self, values: np.ndarray | None = None):
        """Convert to ``scipy.sparse.coo_matrix`` (reference numerics)."""
        import scipy.sparse as sp

        data = np.ones(self.nnz, dtype=np.float64) if values is None else values
        return sp.coo_matrix(
            (data, (self.rows, self.cols)), shape=(self.num_rows, self.num_cols)
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_rows: int,
        num_cols: int,
        rows: np.ndarray,
        cols: np.ndarray,
        *,
        deduplicate: bool = True,
    ) -> "COOMatrix":
        """Build a CSR-ordered COO from an unsorted edge list."""
        rows = np.asarray(rows, dtype=INDEX_DTYPE)
        cols = np.asarray(cols, dtype=INDEX_DTYPE)
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        if deduplicate and rows.size:
            keep = np.ones(rows.size, dtype=bool)
            keep[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            rows, cols = rows[keep], cols[keep]
        return cls(num_rows, num_cols, rows, cols)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"COOMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"csr_ordered={self.is_csr_ordered()})"
        )
