"""Format conversions and symmetry helpers."""

from __future__ import annotations

import numpy as np

from repro.errors import FormatError
from repro.sparse.coo import COOMatrix


def transpose_coo(coo: COOMatrix) -> COOMatrix:
    """Transpose (swap rows/cols), re-establishing CSR order."""
    return COOMatrix.from_edges(
        coo.num_cols, coo.num_rows, coo.cols, coo.rows, deduplicate=False
    )


def symmetrize(coo: COOMatrix, *, drop_self_loops: bool = False) -> COOMatrix:
    """Make the graph undirected by adding every reverse edge.

    GNN frameworks such as DGL expect undirected graphs, so the paper
    doubles edge counts (Table 1); this mirrors that preprocessing.
    """
    if coo.num_rows != coo.num_cols:
        raise FormatError("symmetrize requires a square matrix")
    rows = np.concatenate([coo.rows, coo.cols])
    cols = np.concatenate([coo.cols, coo.rows])
    if drop_self_loops:
        keep = rows != cols
        rows, cols = rows[keep], cols[keep]
    return COOMatrix.from_edges(coo.num_rows, coo.num_cols, rows, cols, deduplicate=True)


def add_self_loops(coo: COOMatrix) -> COOMatrix:
    """Add the identity (GCN's renormalization trick needs self loops)."""
    if coo.num_rows != coo.num_cols:
        raise FormatError("self loops require a square matrix")
    diag = np.arange(coo.num_rows, dtype=np.int32)
    rows = np.concatenate([coo.rows, diag])
    cols = np.concatenate([coo.cols, diag])
    return COOMatrix.from_edges(coo.num_rows, coo.num_cols, rows, cols, deduplicate=True)


def from_scipy(mat) -> COOMatrix:
    """Build a CSR-ordered COO from any scipy sparse matrix."""
    m = mat.tocoo()
    return COOMatrix.from_edges(m.shape[0], m.shape[1], m.row, m.col, deduplicate=True)
