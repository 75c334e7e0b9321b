"""Format conversions and symmetry helpers."""

from __future__ import annotations

import numpy as np

from repro.errors import FormatError
from repro.sparse.coo import COOMatrix


def symmetrize(coo: COOMatrix) -> COOMatrix:
    """Make the graph undirected by adding every reverse edge.

    GNN frameworks such as DGL expect undirected graphs, so the paper
    doubles edge counts (Table 1); this mirrors that preprocessing.
    """
    if coo.num_rows != coo.num_cols:
        raise FormatError("symmetrize requires a square matrix")
    rows = np.concatenate([coo.rows, coo.cols])
    cols = np.concatenate([coo.cols, coo.rows])
    return COOMatrix.from_edges(coo.num_rows, coo.num_cols, rows, cols, deduplicate=True)


def add_self_loops(coo: COOMatrix) -> COOMatrix:
    """Add the identity (GCN's renormalization trick needs self loops)."""
    if coo.num_rows != coo.num_cols:
        raise FormatError("self loops require a square matrix")
    diag = np.arange(coo.num_rows, dtype=np.int32)
    rows = np.concatenate([coo.rows, diag])
    cols = np.concatenate([coo.cols, diag])
    return COOMatrix.from_edges(coo.num_rows, coo.num_cols, rows, cols, deduplicate=True)
