"""Graph/workload statistics used by reports and tests.

The paper's story is about *imbalance* (row-length variance starves
vertex-parallel kernels) and *locality* (CSR-ordered COO gives
consecutive NZEs the same row).  These metrics quantify both so tests
can assert generators produce the intended structural class and reports
can explain per-dataset speedups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.coo import COOMatrix


@dataclass(frozen=True)
class GraphStats:
    num_vertices: int
    num_edges: int
    avg_degree: float
    max_degree: int
    degree_cv: float  # coefficient of variation — the imbalance driver
    gini: float
    row_segments_per_128: float  # mean distinct rows in a 128-NZE chunk


def gini_coefficient(values: np.ndarray) -> float:
    """Gini index of a non-negative distribution (0 = uniform, →1 = hub)."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    n = v.size
    if n == 0 or v.sum() == 0:
        return 0.0
    cum = np.cumsum(v)
    return float((n + 1 - 2 * (cum / cum[-1]).sum()) / n)


def graph_stats(coo: COOMatrix) -> GraphStats:
    deg = coo.row_degrees().astype(np.float64)
    nz = deg[deg > 0]
    mean = float(deg.mean()) if deg.size else 0.0
    cv = float(deg.std() / mean) if mean > 0 else 0.0
    segs = coo.row_splits_in_chunks(128)
    return GraphStats(
        num_vertices=coo.num_rows,
        num_edges=coo.nnz,
        avg_degree=mean,
        max_degree=int(deg.max()) if deg.size else 0,
        degree_cv=cv,
        gini=gini_coefficient(nz) if nz.size else 0.0,
        row_segments_per_128=float(segs.mean()) if segs.size else 0.0,
    )
