"""Training-side graph wrapper: cached transpose and GCN normalization.

The backward pass of ``Y = A X`` needs ``A^T`` (dX = A^T dY); GNN
frameworks keep the reverse topology cached.  For GNNOne the transpose
is just the COO re-sorted by column — still one storage format — while
DGL materializes a CSC alongside (accounted by the memory model).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro import obs
from repro.resilience.validation import ValidationReport, validate_graph
from repro.sparse.convert import add_self_loops
from repro.sparse.coo import COOMatrix


class GraphData:
    """A graph prepared for GNN training."""

    def __init__(self, coo: COOMatrix):
        self.coo = add_self_loops(coo)

    @property
    def num_vertices(self) -> int:
        return self.coo.num_rows

    @property
    def num_edges(self) -> int:
        return self.coo.nnz

    @property
    def structure_token(self) -> str:
        """Plan-cache fingerprint of the (self-loop-augmented) topology.

        Every epoch's forward/backward kernels launch on ``coo`` or
        ``coo_t``; both COOMatrix instances live for the whole training
        run, so their tokens — and all structural plans keyed on them —
        are computed once and replayed for epochs 2..N.
        """
        return self.coo.structure_token

    @cached_property
    def transpose_perm(self) -> np.ndarray:
        """Permutation mapping original edge order to ``coo_t``'s order."""
        return np.lexsort((self.coo.rows, self.coo.cols))

    @cached_property
    def coo_t(self) -> COOMatrix:
        perm = self.transpose_perm
        coo_t = COOMatrix(
            self.coo.num_cols,
            self.coo.num_rows,
            self.coo.cols[perm],
            self.coo.rows[perm],
        )
        # CSR-ordered by construction (lexsorted on the transposed row).
        coo_t._csr_ordered = True
        return coo_t

    @cached_property
    def degrees(self) -> np.ndarray:
        return self.coo.row_degrees()

    @cached_property
    def gcn_edge_values(self) -> np.ndarray:
        """Symmetric normalization 1/sqrt(d_r d_c) (Kipf & Welling)."""
        d = np.maximum(self.degrees.astype(np.float64), 1.0)
        inv_sqrt = 1.0 / np.sqrt(d)
        return inv_sqrt[self.coo.rows] * inv_sqrt[self.coo.cols]

    @cached_property
    def ones_edge_values(self) -> np.ndarray:
        """Plain aggregation values (GIN's sum aggregator)."""
        return np.ones(self.coo.nnz, dtype=np.float64)

    @cached_property
    def row_boundaries(self) -> np.ndarray:
        """Start index of each row segment in the CSR-ordered COO —
        the reduceat boundaries edge-softmax segment ops use."""
        rows = self.coo.rows
        if rows.size == 0:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])

    def validate(self, features: np.ndarray | None = None) -> ValidationReport:
        """Run the resilience validation census on the training topology.

        Raises :class:`~repro.errors.GraphValidationError` on a contract
        violation; otherwise returns the census (duplicate edges, empty
        rows, ordering) and emits it as a ``resilience.validated`` obs
        event so traces record what entered the training loop.
        """
        report = validate_graph(self.coo, features).raise_if_invalid()
        obs.event("resilience.validated", **report.to_dict())
        return report

    def warm(self, features: np.ndarray | None = None) -> "GraphData":
        """Materialize every value-independent structure before epoch 1.

        Each of these is memoized and would be computed lazily on first
        use anyway; forcing them up front keeps the lazy builds out of
        the first epoch's timing and out of the execution engine's
        worker threads (concurrent launches then only ever *read* the
        memoized structures).  Idempotent and cheap to re-call.  The
        validation boundary runs here too: a malformed topology (or a
        non-finite value in ``features``, when given) fails with a
        typed error before any kernel launches.
        """
        self.validate(features)
        _ = self.structure_token
        self.coo.csr_arrays()
        _ = self.transpose_perm
        _ = self.coo_t.structure_token
        self.coo_t.csr_arrays()
        _ = self.row_boundaries
        _ = self.degrees
        return self
