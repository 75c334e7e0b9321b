"""Serial kernel numerics behind the execution engine.

These are the exact numerics the kernels ran before the engine existed
(moved here from ``repro.kernels.gnnone.spmm`` so the engine does not
import the kernel layer).  SpMM and SpMV are scipy's ``csr @ dense``
over the memoized CSR structural view: one C loop per row accumulating
NZEs in CSR order.

SDDMM accumulates each edge dot in ascending feature order — one
elementwise ``acc += XT[k][rows] * YT[k][cols]`` pass per feature — which
is the *defined* summation order: each edge's dot is independent of
every other edge, and a scalar ``for k`` loop would perform the
identical add sequence.  The operands are gathered feature-major:
``X.T``/``Y.T`` are made contiguous once per launch, so pass ``k`` reads
one contiguous feature column of length ``num_rows`` (cache-resident for
the graphs here) at the edge indices.  The edges are processed in
blocks of :data:`SDDMM_BLOCK_EDGES`: all ``F`` passes run over one block
before the next, writing into preallocated block buffers
(``np.take``/``np.multiply``/``np.add`` with ``out=``), so a block's
gathers, products and accumulators stay cache-resident and no pass
allocates.  Each pass multiplies and adds the same two values per edge,
in each operand's own dtype, in the same ``k`` order, so the result is
unchanged to the last bit.  ``np.einsum`` would be marginally faster
but uses SIMD partial accumulators, so its last-bit results are not
reproducible by a scalar kernel — a pinned order is worth the extra
feature passes.

The edge softmax (:func:`segment_softmax`) is written once, for the
fused GAT kernel and the autograd ``edge_softmax`` alike.  Its canonical
kernels are numpy's ``reduceat`` segment max (max is association-free)
and segment sum, and ``np.exp``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FormatError
from repro.sparse.coo import COOMatrix


def csr_spmm_serial(A: COOMatrix, edge_values: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``Y = A_w @ X`` over the memoized CSR structural view (one C loop)."""
    import scipy.sparse as sp

    indptr, cols, perm = A.csr_arrays()
    data = np.asarray(edge_values, dtype=np.float64)
    if perm is not None:
        data = data[perm]
    M = sp.csr_matrix((data, cols, indptr), shape=A.shape)
    return M @ np.asarray(X)


def feature_major(X: np.ndarray) -> np.ndarray:
    """``X.T`` as a C-contiguous ``(F, n)`` array: row ``k`` is feature ``k``."""
    return np.ascontiguousarray(np.asarray(X).T)


#: edges per SDDMM block: a block's two gathers, product and accumulator
#: (about 0.5 MB in float64) stay cache-resident across all F passes
SDDMM_BLOCK_EDGES = 16384


def _feature_major_dot(
    XT: np.ndarray, YT: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """``out[e] = sum_k XT[k, rows[e]] * YT[k, cols[e]]``, ascending ``k``.

    One elementwise pass per feature and edge block pins the
    accumulation order: for every edge the adds happen in ascending
    ``k``, exactly the sequence a scalar ``for k`` loop performs — see
    the module docstring.  ``mode="wrap"`` skips ``np.take``'s bounds
    buffering, so every index must already be in range:
    :func:`sddmm_serial` checks the operand shapes against ``A``, whose
    indices :class:`COOMatrix` bounds at construction.
    """
    nnz = rows.shape[0]
    prod_dtype = np.result_type(XT.dtype, YT.dtype)
    out = np.zeros(nnz, dtype=np.result_type(prod_dtype, np.float64))
    block = max(1, min(nnz, SDDMM_BLOCK_EDGES))
    xs, ys = np.empty(block, dtype=XT.dtype), np.empty(block, dtype=YT.dtype)
    prods = np.empty(block, dtype=prod_dtype)
    for start in range(0, nnz, block):
        stop = min(start + block, nnz)
        r, c, acc = rows[start:stop], cols[start:stop], out[start:stop]
        x, y, prod = xs[: stop - start], ys[: stop - start], prods[: stop - start]
        for k in range(XT.shape[0]):
            np.take(XT[k], r, out=x, mode="wrap")
            np.take(YT[k], c, out=y, mode="wrap")
            np.multiply(x, y, out=prod)
            np.add(acc, prod, out=acc)
    return out


def sddmm_serial(A: COOMatrix, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """``W[e] = <X[row_e], Y[col_e]>`` in the caller's edge order."""
    if (X.ndim, Y.ndim) != (2, 2) or X.shape[1] != Y.shape[1] or (
        (X.shape[0], Y.shape[0]) != (A.num_rows, A.num_cols)
    ):
        raise FormatError(
            f"SDDMM operands {X.shape} and {Y.shape} do not fit a {A.num_rows}x{A.num_cols} graph"
        )
    return _feature_major_dot(feature_major(X), feature_major(Y), A.rows, A.cols)


def segment_softmax(
    values: np.ndarray, rows: np.ndarray, bounds: np.ndarray, num_rows: int
) -> np.ndarray:
    """Softmax of ``values`` within each row segment of a CSR-ordered COO.

    ``rows`` is the row of every value and ``bounds`` the start of every
    row segment (``np.add.reduceat`` boundaries).  Each segment is
    shifted by its max before ``exp`` and divided by its sum.  The one
    copy of the edge softmax: the fused GAT kernel and the autograd
    ``edge_softmax`` both compute through it.
    """
    if not values.size:
        return values.copy()
    seg_max = np.maximum.reduceat(values, bounds)
    row_of_seg = rows[bounds]
    full_max = np.zeros(num_rows)
    full_max[row_of_seg] = seg_max
    ex = np.exp(values - full_max[rows])
    seg_sum = np.add.reduceat(ex, bounds)
    full_sum = np.ones(num_rows)
    full_sum[row_of_seg] = seg_sum
    return ex / full_sum[rows]


#: GAT attention's leaky-ReLU slope (the GAT paper's 0.2); the nn path's
#: ``leaky_relu`` uses it too
LEAKY_RELU_SLOPE = 0.2


def gat_edge_softmax_serial(
    A: COOMatrix,
    el: np.ndarray,
    er: np.ndarray,
) -> np.ndarray:
    """Fused-GAT edge pipeline: leaky-relu scores + per-row softmax.

    ``A`` must be CSR-ordered so each row's edges form one contiguous
    segment.
    """
    rows, cols = A.rows, A.cols
    scores = el[rows] + er[cols]
    scores = np.where(scores > 0, scores, LEAKY_RELU_SLOPE * scores)
    if not A.nnz:
        return scores
    bounds = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
    return segment_softmax(scores, rows, bounds, A.num_rows)
