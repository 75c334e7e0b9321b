"""Kernel registry: every kernel instance keyed by figure-label names.

The benchmark harness looks kernels up by the names the paper's figures
use; examples and the public API use the same names for ``backend=``
selection.  ``spmm_kernel``/``sddmm_kernel`` are also the one place a
(kernel name, optional :class:`GnnOneConfig`) pair becomes a kernel: the
``core`` API and the training backends both resolve through them.
"""

from __future__ import annotations

from typing import Callable

from repro import obs
from repro.errors import BenchmarkError, ConfigError
from repro.kernels.base import SDDMMKernel, SpMMKernel, SpMVKernel
from repro.kernels.baselines import (
    BinnedSpMV,
    CsrScalarSpMV,
    CsrVectorSpMV,
    CuSparseSDDMM,
    CuSparseSpMM,
    DaltonSpMV,
    DGLSDDMM,
    DGLSpMM,
    DgSparseSDDMM,
    FeatGraphSDDMM,
    FeatGraphSpMM,
    GeSpMM,
    GNNAdvisorSpMM,
    HuangSpMM,
    MergeSpMV,
    SputnikSDDMM,
    SputnikSpMM,
    YangNonzeroSplitSpMM,
)
from repro.kernels.gnnone import GnnOneConfig, GnnOneSDDMM, GnnOneSpMM, GnnOneSpMV

_SPMM_FACTORIES: dict[str, Callable[[], SpMMKernel]] = {
    "gnnone": GnnOneSpMM,
    "ge-spmm": GeSpMM,
    "cusparse": CuSparseSpMM,
    "gnnadvisor": GNNAdvisorSpMM,
    "huang": HuangSpMM,
    "featgraph": FeatGraphSpMM,
    "dgl": DGLSpMM,
    "sputnik": SputnikSpMM,
    "yang-nzsplit": YangNonzeroSplitSpMM,
}

_SDDMM_FACTORIES: dict[str, Callable[[], SDDMMKernel]] = {
    "gnnone": GnnOneSDDMM,
    "dgl": DGLSDDMM,
    "dgsparse": DgSparseSDDMM,
    "featgraph": FeatGraphSDDMM,
    "cusparse": CuSparseSDDMM,
    "sputnik": SputnikSDDMM,
}

_SPMV_FACTORIES: dict[str, Callable[[], SpMVKernel]] = {
    "gnnone": GnnOneSpMV,
    "merge-spmv": MergeSpMV,
    "dalton": DaltonSpMV,
    "csr-scalar": CsrScalarSpMV,
    "csr-vector": CsrVectorSpMV,
    "binned": BinnedSpMV,
}


def _lookup(table: dict, kind: str, name: str):
    try:
        factory = table[name]
    except KeyError:
        raise BenchmarkError(
            f"unknown {kind} kernel {name!r}; known: {sorted(table)}"
        ) from None
    obs.event("kernel.dispatch", kind=kind, kernel=name)
    return factory()


def check_config(name: str, config: GnnOneConfig | None) -> None:
    """``ConfigError`` unless ``config`` is ``None`` or ``name`` is ``"gnnone"``."""
    if config is not None and name != "gnnone":
        raise ConfigError(f"config= applies only to backend='gnnone', got backend={name!r}")


def spmm_kernel(name: str, config: GnnOneConfig | None = None) -> SpMMKernel:
    """The SpMM kernel ``name``; ``config`` selects a tuned GNNOne kernel."""
    if config is None:
        return _lookup(_SPMM_FACTORIES, "spmm", name)
    check_config(name, config)
    return GnnOneSpMM(config)


def sddmm_kernel(name: str, config: GnnOneConfig | None = None) -> SDDMMKernel:
    """The SDDMM kernel ``name``; ``config`` selects a tuned GNNOne kernel."""
    if config is None:
        return _lookup(_SDDMM_FACTORIES, "sddmm", name)
    check_config(name, config)
    return GnnOneSDDMM(config)


def spmv_kernel(name: str) -> SpMVKernel:
    return _lookup(_SPMV_FACTORIES, "spmv", name)


def spmm_kernel_names() -> tuple[str, ...]:
    return tuple(sorted(_SPMM_FACTORIES))


def sddmm_kernel_names() -> tuple[str, ...]:
    return tuple(sorted(_SDDMM_FACTORIES))


def spmv_kernel_names() -> tuple[str, ...]:
    return tuple(sorted(_SPMV_FACTORIES))
