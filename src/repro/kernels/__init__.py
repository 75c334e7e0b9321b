"""Sparse kernels: GNNOne's unified design plus all paper baselines."""

from repro.kernels.base import (
    KernelResult,
    SDDMMKernel,
    SpMMKernel,
    SpMVKernel,
    reference_sddmm,
    reference_spmm,
)
from repro.kernels.registry import (
    sddmm_kernel,
    sddmm_kernel_names,
    spmm_kernel,
    spmm_kernel_names,
    spmv_kernel,
    spmv_kernel_names,
)

__all__ = [
    "KernelResult",
    "SDDMMKernel",
    "SpMMKernel",
    "SpMVKernel",
    "reference_sddmm",
    "reference_spmm",
    "sddmm_kernel",
    "sddmm_kernel_names",
    "spmm_kernel",
    "spmm_kernel_names",
    "spmv_kernel",
    "spmv_kernel_names",
]
