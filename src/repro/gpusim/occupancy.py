"""GPU occupancy calculator.

Occupancy — the number of CTAs (and hence warps) resident per SM — decides
how much data-load latency the hardware can hide (Section 3.2 of the
paper: Yang et al.'s nonzero-split SpMM materializes one dot product per
NZE per feature in registers, the register pressure lowers occupancy, the
GPU cannot issue enough concurrent loads, and data-load performance
collapses).  This module reproduces the standard CUDA occupancy
computation from first principles.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.gpusim.device import DeviceSpec

#: Register allocation granularity (registers are allocated per warp in
#: multiples of this on Volta/Ampere).
_REG_ALLOC_UNIT = 256

#: Shared-memory allocation granularity in bytes.
_SMEM_ALLOC_UNIT = 128


def _round_up(value: int, unit: int) -> int:
    return ((value + unit - 1) // unit) * unit


@dataclass(frozen=True)
class Occupancy:
    """Result of an occupancy computation for one kernel launch."""

    active_ctas_per_sm: int
    active_warps_per_sm: int
    limiter: str  # which resource capped occupancy


def compute_occupancy(
    device: DeviceSpec,
    threads_per_cta: int,
    registers_per_thread: int,
    shared_mem_per_cta: int,
) -> Occupancy:
    """Compute CTAs/SM exactly as the CUDA occupancy calculator does.

    Parameters mirror a CUDA launch: CTA size, per-thread register count
    (as reported by ``ptxas``), and static+dynamic shared memory per CTA.
    """
    if threads_per_cta <= 0 or threads_per_cta > device.max_threads_per_cta:
        raise ConfigError(
            f"threads_per_cta={threads_per_cta} outside "
            f"(0, {device.max_threads_per_cta}]"
        )
    if registers_per_thread <= 0:
        raise ConfigError("registers_per_thread must be positive")
    if registers_per_thread > device.max_registers_per_thread:
        # ptxas spills instead of failing; model the spill as pinning the
        # register count at the maximum (spill traffic is charged by the
        # kernel implementations that overflow, e.g. Yang nonzero-split).
        registers_per_thread = device.max_registers_per_thread
    if shared_mem_per_cta < 0:
        raise ConfigError("shared_mem_per_cta must be non-negative")
    if shared_mem_per_cta > device.shared_mem_per_cta:
        raise ConfigError(
            f"shared_mem_per_cta={shared_mem_per_cta} exceeds device limit "
            f"{device.shared_mem_per_cta}"
        )

    warps_per_cta = (threads_per_cta + device.warp_size - 1) // device.warp_size

    limits: dict[str, int] = {}
    limits["ctas"] = device.max_ctas_per_sm
    limits["threads"] = device.max_threads_per_sm // threads_per_cta
    limits["warps"] = device.max_warps_per_sm // warps_per_cta

    regs_per_warp = _round_up(registers_per_thread * device.warp_size, _REG_ALLOC_UNIT)
    regs_per_cta = regs_per_warp * warps_per_cta
    limits["registers"] = device.registers_per_sm // regs_per_cta

    if shared_mem_per_cta > 0:
        smem = _round_up(shared_mem_per_cta, _SMEM_ALLOC_UNIT)
        limits["shared_memory"] = device.shared_mem_per_sm // smem

    limiter, active = min(limits.items(), key=lambda kv: kv[1])
    active = max(active, 0)
    if active == 0:
        # A launch that cannot fit even one CTA is a CUDA launch failure;
        # callers surface this as KernelLaunchError with context.
        return Occupancy(0, 0, limiter)
    return Occupancy(active, active * warps_per_cta, limiter)
