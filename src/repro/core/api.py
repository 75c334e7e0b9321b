"""Public API: ``spmm``, ``sddmm``, ``spmv`` with backend dispatch.

This is the surface a downstream user programs against::

    from repro import core, sparse
    A = sparse.load_dataset("G14").coo
    Y, report = core.spmm(A, edge_values, X)            # GNNOne kernels
    Y, report = core.spmm(A, edge_values, X, backend="dgl")   # baseline

Every call returns the numerical result plus the simulated
:class:`~repro.gpusim.cost.CostReport`, so applications can account
simulated GPU time alongside real numerics.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.cost import CostReport
from repro.gpusim.device import DeviceSpec
from repro.kernels.gnnone import GnnOneConfig
from repro.kernels.registry import sddmm_kernel, spmm_kernel, spmv_kernel
from repro.sparse.coo import COOMatrix


def spmm(
    A: COOMatrix,
    edge_values: np.ndarray,
    X: np.ndarray,
    *,
    backend: str = "gnnone",
    config: GnnOneConfig | None = None,
    device: DeviceSpec | str | None = None,
) -> tuple[np.ndarray, CostReport]:
    """Sparse-dense matmul ``Y = A_w @ X`` (|V| x F output).

    Parameters
    ----------
    A:
        Graph topology (CSR-ordered COO).
    edge_values:
        Edge-level tensor, shape ``(|E|,)``.
    X:
        Vertex-level tensor, shape ``(|V|, F)``.
    backend:
        ``"gnnone"`` (default) or any registered baseline name.
    config:
        GNNOne tuning knobs; a ``ConfigError`` with any other backend.
    """
    result = spmm_kernel(backend, config)(A, edge_values, X, device=device)
    return result.output, result.cost


def sddmm(
    A: COOMatrix,
    X: np.ndarray,
    Y: np.ndarray,
    *,
    backend: str = "gnnone",
    config: GnnOneConfig | None = None,
    device: DeviceSpec | str | None = None,
) -> tuple[np.ndarray, CostReport]:
    """Sampled dense-dense matmul ``W = A ⊙ (X Y^T)`` (|E| output)."""
    result = sddmm_kernel(backend, config)(A, X, Y, device=device)
    return result.output, result.cost


def spmv(
    A: COOMatrix,
    edge_values: np.ndarray,
    x: np.ndarray,
    *,
    backend: str = "gnnone",
    device: DeviceSpec | str | None = None,
) -> tuple[np.ndarray, CostReport]:
    """Sparse matrix-vector product ``y = A_w x`` (the Fig-12 study)."""
    result = spmv_kernel(backend)(A, edge_values, x, device=device)
    return result.output, result.cost
