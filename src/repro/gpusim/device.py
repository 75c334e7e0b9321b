"""Device specification for the simulated GPU.

The paper evaluates on an NVIDIA A100 (40 GB).  ``DeviceSpec`` captures the
architectural parameters that GNNOne's argument actually depends on:

* warp width and per-SM concurrency limits (occupancy),
* register file and shared-memory capacity (Yang et al.'s nonzero-split
  SpMM loses occupancy to register materialization; Stage-1 caching
  consumes shared memory),
* DRAM bandwidth and latency (the "memory wall" — Observation #2),
* instruction costs for shuffles, barriers, and atomics (the reduction
  stage's indirect impact on data-load, Section 3.2).

All timing constants are single-source-of-truth here so the cost model in
:mod:`repro.gpusim.cost` stays mechanism-only.  The defaults are an
A100-class part; they are calibration knobs, not measurements — the
reproduction targets the *shape* of the paper's results, and the shape is
driven by sector counts, ILP, occupancy and imbalance computed from real
per-warp work assignments, not by these constants.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

#: Bytes per DRAM sector (the L2<->DRAM transfer granule on NVIDIA parts).
SECTOR_BYTES = 32


@dataclass(frozen=True)
class DeviceSpec:
    """Architectural and timing parameters of the simulated GPU."""

    name: str = "sim-a100-40gb"

    # --- structural -----------------------------------------------------
    num_sms: int = 108
    warp_size: int = 32
    max_threads_per_sm: int = 2048
    max_ctas_per_sm: int = 32
    max_warps_per_sm: int = 64
    registers_per_sm: int = 65536
    max_registers_per_thread: int = 255
    shared_mem_per_sm: int = 164 * 1024
    shared_mem_per_cta: int = 64 * 1024
    max_threads_per_cta: int = 1024
    #: CUDA grid x-dimension limit; Sputnik's |V|^2-block SDDMM trips this.
    max_grid_blocks: int = 2**31 - 1
    #: Device memory capacity in bytes (A100-40GB).  Scaled graphs are
    #: checked against a scaled capacity by the dataset registry instead.
    memory_bytes: int = 40 * 1024**3

    # --- timing (cycles unless noted) ------------------------------------
    clock_ghz: float = 1.41
    dram_bandwidth_gbps: float = 1555.0
    dram_latency_cycles: float = 480.0
    l2_latency_cycles: float = 200.0
    smem_latency_cycles: float = 25.0
    #: One warp-wide shuffle instruction.
    shuffle_cycles: float = 10.0
    #: __syncwarp / memory-barrier cost: the fence itself plus the pipeline
    #: drain it forces (loads issued before it must retire first).
    barrier_cycles: float = 30.0
    #: A conflict-free global atomic add (fire-and-forget via L2).
    atomic_cycles: float = 12.0
    #: Mean extra wait per additional atomic colliding on one address
    #: (L2 serializes colliding ops; the wait is shared by the queue, so
    #: per-op cost grows linearly with collision degree at a few cycles
    #: per colliding op, not a full round-trip each).
    atomic_conflict_cycles: float = 4.0
    #: FMA throughput per warp per cycle (32 lanes, 1 FMA each = 64 flop).
    flops_per_warp_cycle: float = 64.0
    #: Cap on memory-level parallelism per warp (MSHR-style limit).
    max_outstanding_loads: float = 8.0
    #: Fixed kernel launch overhead in microseconds.
    launch_overhead_us: float = 3.0

    # --- derived ---------------------------------------------------------
    @property
    def clock_hz(self) -> float:
        return self.clock_ghz * 1e9

    @property
    def dram_bytes_per_cycle(self) -> float:
        """Device-wide DRAM bytes transferred per core cycle."""
        return self.dram_bandwidth_gbps * 1e9 / self.clock_hz

    def cycles_to_us(self, cycles: float) -> float:
        return cycles / self.clock_hz * 1e6

    def us_to_cycles(self, us: float) -> float:
        return us * 1e-6 * self.clock_hz

    def __post_init__(self) -> None:
        if self.warp_size != 32:
            raise ConfigError("the model assumes 32-thread warps")
        for attr in (
            "num_sms",
            "max_threads_per_sm",
            "registers_per_sm",
            "shared_mem_per_sm",
            "clock_ghz",
            "dram_bandwidth_gbps",
        ):
            if getattr(self, attr) <= 0:
                raise ConfigError(f"DeviceSpec.{attr} must be positive")


#: Default device used throughout the package when none is supplied.
A100 = DeviceSpec()

#: A smaller V100-class device, used by tests to check that results scale
#: with device parameters in the expected direction.
V100 = DeviceSpec(
    name="sim-v100-16gb",
    num_sms=80,
    registers_per_sm=65536,
    shared_mem_per_sm=96 * 1024,
    shared_mem_per_cta=48 * 1024,
    memory_bytes=16 * 1024**3,
    clock_ghz=1.38,
    dram_bandwidth_gbps=900.0,
)


def get_device(device: DeviceSpec | str | None = None) -> DeviceSpec:
    """Resolve a device argument: spec object, registry name, or default."""
    if device is None:
        return A100
    if isinstance(device, DeviceSpec):
        return device
    registry = {"a100": A100, "v100": V100, A100.name: A100, V100.name: V100}
    try:
        return registry[str(device).lower()]
    except KeyError:
        raise ConfigError(f"unknown device {device!r}; known: {sorted(registry)}")
