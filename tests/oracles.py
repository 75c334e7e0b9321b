"""Test-only oracles and builders: independent answers the package never computes with.

Kept out of ``src/`` because no product path calls them; the tests use
them to check the package's own results against a second formulation.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np
from hypothesis import strategies as st

from repro import core
from repro.errors import ConfigError
from repro.exec import get_engine
from repro.kernels.base import reference_sddmm, reference_spmm
from repro.kernels.gnnone.fused import fused_gat_attention_numerics
from repro.nn.tensor import Tensor
from repro.sparse import COOMatrix, CSRMatrix, symmetrize
from repro.sparse.formats import MergePathFormat

#: the one tolerance between an engine output and its independent oracle
#: (tighter than numpy's default ``rtol=1e-7``; ``atol`` only absorbs
#: rounding in sums that cancel to about zero)
TOL = {"rtol": 1e-9, "atol": 1e-12}


def assert_close(got: np.ndarray, want: np.ndarray) -> None:
    np.testing.assert_allclose(got, want, **TOL)


# ------------------------------------------------------------------ sparse
def to_dense(A: COOMatrix, values: np.ndarray | None = None) -> np.ndarray:
    """Dense matrix of ``A`` (duplicates summed), built without scipy."""
    dense = np.zeros((A.num_rows, A.num_cols))
    np.add.at(dense, (A.rows, A.cols), 1.0 if values is None else values)
    return dense


def csr_rows(csr: CSRMatrix) -> np.ndarray:
    """Per-NZE row ids of a CSR matrix (the COO ``rows`` it stands for)."""
    return np.repeat(np.arange(csr.num_rows), np.diff(csr.indptr))


def merge_path_counts(fmt: MergePathFormat) -> tuple[np.ndarray, np.ndarray]:
    """NZEs and rows each merge-path partition covers."""
    nze_ends = np.append(fmt.start_nze[1:], fmt.csr.nnz)
    row_ends = np.append(fmt.start_row[1:], fmt.csr.num_rows)
    return nze_ends - fmt.start_nze, row_ends - fmt.start_row


def reference_spmv(A: COOMatrix, edge_values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Ground-truth SpMV via scipy."""
    return A.to_scipy(np.asarray(edge_values, dtype=np.float64)).tocsr() @ np.asarray(x)


def reference_gat(A: COOMatrix, el: np.ndarray, er: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The fused GAT layer from dense matrices: leaky-ReLU(0.2) scores
    ``el[i] + er[j]``, a softmax over each row's edges (a duplicate edge
    counts once per copy), then :func:`reference_spmm` with those weights."""
    count = to_dense(A)
    scores = el[:, None] + er[None, :]
    scores = np.where(scores > 0, scores, 0.2 * scores)
    masked = np.where(count > 0, scores, -np.inf)
    row_max = masked.max(axis=1, keepdims=True)
    row_max[~np.isfinite(row_max)] = 0.0  # rows without edges
    weights = np.where(count > 0, np.exp(masked - row_max), 0.0)
    denom = (count * weights).sum(axis=1, keepdims=True)
    alpha = weights / np.where(denom > 0, denom, 1.0)
    return reference_spmm(A, alpha[A.rows, A.cols], X)


def gcn_oracle(graph, model, features: np.ndarray) -> np.ndarray:
    """A GCN forward from the layers' weights and :func:`reference_spmm`."""
    h = features
    for i, layer in enumerate(model.layers):
        h = h @ layer.linear.weight.data + layer.linear.bias.data
        h = reference_spmm(graph.coo, graph.gcn_edge_values, h)
        if i < len(model.layers) - 1:
            h = np.maximum(h, 0.0)
    return h


#: kernel kind -> its independent oracle
ORACLES = {
    "spmm": reference_spmm,
    "sddmm": reference_sddmm,
    "spmv": reference_spmv,
    "fused-gat": reference_gat,
}


def engine_output(kind: str, A: COOMatrix, ops: tuple) -> np.ndarray:
    """The one output every path of ``kind`` must return, bit for bit."""
    if kind == "fused-gat":
        return fused_gat_attention_numerics(A.sort_csr_order(), *ops)[1]
    return getattr(get_engine(), kind)(A, *ops)


def assert_path(kind: str, out: np.ndarray, A: COOMatrix, ops: tuple) -> None:
    """``out`` is the engine output, and that agrees with the oracle."""
    expect = engine_output(kind, A, ops)
    assert np.array_equal(out, expect)
    assert_close(expect, ORACLES[kind](A, *ops))


def core_path(kind: str, A: COOMatrix, rng: np.random.Generator, F: int = 4, **kwargs):
    """``repro.core.<kind>`` on fresh operands, checked by :func:`assert_path`;
    returns its ``(output, report)``."""
    ops = operands(kind, A, F, rng)
    out, report = getattr(core, kind)(A, *ops, **kwargs)
    assert_path(kind, out, A, ops)
    return out, report


def operands(kind: str, A: COOMatrix, F: int, rng: np.random.Generator) -> tuple:
    """Standard-normal operands of one ``kind`` launch on ``A`` at width ``F``."""
    n, m = A.num_rows, A.num_cols
    shapes = {
        "spmm": [(A.nnz,), (m, F)],
        "sddmm": [(n, F), (m, F)],
        "spmv": [(A.nnz,), (m,)],
        "fused-gat": [(n,), (m,), (m, F)],
    }[kind]
    return tuple(rng.standard_normal(shape) for shape in shapes)


@st.composite
def graph_and_dim(draw, widths=(1, 3, 6, 8, 16, 32, 48)):
    """A random square graph (2-30 vertices, 1-120 edges, duplicates
    merged), a width from ``widths`` and the rng that drew the edges."""
    n = draw(st.integers(2, 30))
    nnz = draw(st.integers(1, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coo = COOMatrix.from_edges(n, n, rng.integers(0, n, nnz), rng.integers(0, n, nnz))
    return coo, draw(st.sampled_from(widths)), rng


@st.composite
def graphs(draw, max_vertices: int = 24) -> COOMatrix:
    """Small COO matrices with the shapes that break sparse kernels.

    Zero edges, a single vertex, rectangular shapes, empty rows, a hub
    row adjacent to every column, self-loops, duplicate edges, and
    unsorted (not CSR-ordered) COO all occur.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, max_vertices))
    m = draw(st.sampled_from([n, n + 3, max(1, n // 2)]))
    nnz = draw(st.integers(0, 4 * n))
    rows, cols = rng.integers(0, n, nnz), rng.integers(0, m, nnz)
    if draw(st.booleans()):  # empty rows: no edge leaves the upper half
        rows = rows // 2
    if draw(st.booleans()):  # a hub
        rows = np.r_[rows, np.full(m, rng.integers(n))]
        cols = np.r_[cols, np.arange(m)]
    if draw(st.booleans()):  # self-loops
        k = min(n, m)
        rows, cols = np.r_[rows, np.arange(k)], np.r_[cols, np.arange(k)]
    if draw(st.booleans()) and rows.size:  # duplicate edges
        dup = rng.integers(0, rows.size, 4)
        rows, cols = np.r_[rows, rows[dup]], np.r_[cols, cols[dup]]
    sort = draw(st.booleans())
    order = np.lexsort((cols, rows)) if sort else rng.permutation(rows.size)
    return COOMatrix(n, m, rows[order], cols[order])


def segment_sum_spmm(A: COOMatrix, edge_values: np.ndarray, X: np.ndarray) -> np.ndarray:
    """SpMM as ``np.add.reduceat`` segment sums over the CSR-ordered COO.

    A third answer next to the engine output and the scipy reference.
    """
    if A.is_csr_ordered():
        coo = A
    else:
        coo = A.sort_csr_order()
        edge_values = edge_values[A.csr_order()]
    out = np.zeros((A.num_rows, X.shape[1]), dtype=np.float64)
    if coo.nnz == 0:
        return out
    products = edge_values[:, None] * X[coo.cols]
    boundaries = np.flatnonzero(np.r_[True, coo.rows[1:] != coo.rows[:-1]])
    sums = np.add.reduceat(products, boundaries, axis=0)
    out[coo.rows[boundaries]] = sums
    return out


def star(num_vertices: int) -> COOMatrix:
    """One hub connected to everyone: the worst case for vertex-parallel kernels."""
    if num_vertices < 2:
        raise ConfigError("star needs >= 2 vertices")
    spokes = np.arange(1, num_vertices, dtype=np.int64)
    hub = np.zeros(num_vertices - 1, dtype=np.int64)
    return symmetrize(COOMatrix.from_edges(num_vertices, num_vertices, hub, spokes))


def chain(num_vertices: int) -> COOMatrix:
    """Path graph: degree 2 everywhere, perfect balance."""
    if num_vertices < 2:
        raise ConfigError("chain needs >= 2 vertices")
    a = np.arange(num_vertices - 1, dtype=np.int64)
    return symmetrize(COOMatrix.from_edges(num_vertices, num_vertices, a, a + 1))


# ------------------------------------------------------------------ autograd
def tsum(a: Tensor) -> Tensor:
    """Differentiable sum to a scalar (the reduction gradient checks take)."""
    out = Tensor(a.data.sum(), parents=(a,))

    def backward(g: np.ndarray) -> None:
        a.accumulate_grad(np.broadcast_to(g, a.data.shape))

    out._backward = backward
    return out


def gradcheck(
    fn: Callable[..., Tensor],
    inputs: Iterable[Tensor],
    *,
    eps: float = 1e-6,
    atol: float = 1e-4,
) -> bool:
    """Finite-difference check of ``fn``'s gradients w.r.t. ``inputs``."""
    inputs = list(inputs)
    out = fn(*inputs)
    for t in inputs:
        t.zero_grad()
    out = fn(*inputs)
    out.backward()
    for t in inputs:
        if not t.requires_grad:
            continue
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        num = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = fn(*inputs).data.item()
            flat[i] = orig - eps
            lo = fn(*inputs).data.item()
            flat[i] = orig
            num[i] = (hi - lo) / (2 * eps)
        if not np.allclose(analytic.reshape(-1), num, atol=atol, rtol=1e-3):
            return False
    return True
