"""GNNOne's unified kernels: the paper's primary contribution."""

from repro.kernels.gnnone.config import (
    ABLATION_BASELINE,
    ABLATION_DATA_REUSE,
    ABLATION_FULL,
    CONSECUTIVE,
    DEFAULT_CONFIG,
    ROUND_ROBIN,
    GnnOneConfig,
)
from repro.kernels.gnnone.spmm import GnnOneSpMM
from repro.kernels.gnnone.sddmm import GnnOneSDDMM
from repro.kernels.gnnone.spmv import GnnOneSpMV
from repro.kernels.gnnone.fused import GnnOneFusedGATLayer

__all__ = [
    "ABLATION_BASELINE",
    "ABLATION_DATA_REUSE",
    "ABLATION_FULL",
    "CONSECUTIVE",
    "DEFAULT_CONFIG",
    "ROUND_ROBIN",
    "GnnOneConfig",
    "GnnOneSpMM",
    "GnnOneSDDMM",
    "GnnOneSpMV",
    "GnnOneFusedGATLayer",
]
