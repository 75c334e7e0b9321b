"""Cost model for the dense kernels surrounding the sparse ones.

End-to-end GNN training (Figs 5-7) interleaves SpMM/SDDMM with dense
PyTorch kernels — Linear (GEMM), ReLU, softmax, dropout, the optimizer
step — which both GNNOne and the baselines delegate to the same vendor
library.  We price them with a roofline: a GEMM is compute-bound at
tensor-core-free FP32 throughput once large enough, element-wise ops are
bandwidth-bound.  Both systems pay identical dense costs, so these terms
*dilute* end-to-end speedup exactly as in the paper (kernel speedups of
6x become ~2-4x end to end).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpusim.device import DeviceSpec

#: Fraction of peak the dense library sustains on realistic GNN shapes.
_GEMM_EFFICIENCY = 0.55
_ELEMENTWISE_EFFICIENCY = 0.80


@dataclass(frozen=True)
class DenseCost:
    """Simulated time of a dense operation."""

    name: str
    time_us: float
    flops: float
    bytes: float


def _peak_flops(device: DeviceSpec) -> float:
    return device.num_sms * device.flops_per_warp_cycle * 2 * device.clock_hz


def gemm_cost(device: DeviceSpec, m: int, n: int, k: int) -> DenseCost:
    """Cost of a dense ``(m,k) @ (k,n)`` FP32 GEMM."""
    flops = 2.0 * m * n * k
    bytes_moved = 4.0 * (m * k + k * n + m * n)
    t_compute = flops / (_peak_flops(device) * _GEMM_EFFICIENCY)
    t_mem = bytes_moved / (device.dram_bandwidth_gbps * 1e9 * _ELEMENTWISE_EFFICIENCY)
    time_us = max(t_compute, t_mem) * 1e6 + device.launch_overhead_us
    return DenseCost("gemm", time_us, flops, bytes_moved)


def elementwise_cost(
    device: DeviceSpec, num_elements: int, *, reads: int = 1, writes: int = 1, name: str = "eltwise"
) -> DenseCost:
    """Cost of a bandwidth-bound element-wise op (ReLU, dropout, add...)."""
    bytes_moved = 4.0 * num_elements * (reads + writes)
    time_us = (
        bytes_moved / (device.dram_bandwidth_gbps * 1e9 * _ELEMENTWISE_EFFICIENCY) * 1e6
        + device.launch_overhead_us
    )
    return DenseCost(name, time_us, float(num_elements), bytes_moved)
