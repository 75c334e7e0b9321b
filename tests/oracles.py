"""Test-only oracles and builders: independent answers the package never computes with.

Kept out of ``src/`` because no product path calls them; the tests use
them to check the package's own results against a second formulation.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.errors import ConfigError
from repro.nn.tensor import Tensor
from repro.sparse import COOMatrix, CSRMatrix, symmetrize
from repro.sparse.formats import MergePathFormat


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
