"""Kernel execution traces: per-warp counters grouped into phases.

A kernel implementation runs its numerics with NumPy and, in the same
pass, records what each simulated warp *would have done* on the GPU:

* warp-wide global load instructions and the ILP available between
  dependency/barrier points (``load_instrs``, ``ilp``),
* exact DRAM sectors moved (``sectors``, from :mod:`repro.gpusim.memory`),
* arithmetic (``flops``), warp shuffles, barriers, and atomics.

Counters are grouped into named phases tagged with a ``kind`` so the
Fig-11 breakdown ("data-load dominates") can price the load phases
separately from compute/reduction/store.

Counters may be scalars (identical for every warp — kept unexpanded so
million-warp launches like DGL's warp-per-edge SDDMM stay cheap to
trace) or per-warp arrays (padded with zeros up to the grid's rounded
warp count).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError

PHASE_KINDS = ("load", "compute", "reduce", "store")

#: scalar-or-per-warp counter
Counter = float | np.ndarray


def _as_counter(value: float | np.ndarray, n_warps: int, name: str) -> Counter:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        return float(arr)
    if arr.shape == (n_warps,):
        return arr.astype(np.float64, copy=False)
    if arr.ndim == 1 and arr.shape[0] < n_warps:
        # The grid rounds worker counts up to whole CTAs; trailing warps
        # are idle (early-exit in the kernel) and carry zero counters.
        out = np.zeros(n_warps, dtype=np.float64)
        out[: arr.shape[0]] = arr
        return out
    raise ConfigError(f"{name} must be scalar or shape <= ({n_warps},), got {arr.shape}")


def counter_sum(value: Counter, n_warps: int) -> float:
    if isinstance(value, float):
        return value * n_warps
    return float(value.sum())


@dataclass
class Phase:
    """Per-warp counters for one phase of a kernel."""

    name: str
    kind: str
    n_warps: int
    load_instrs: Counter
    ilp: float
    sectors: Counter
    flops: Counter
    shuffles: Counter
    barriers: Counter
    atomics: Counter
    atomic_conflict_degree: float

    def total(self, attr: str) -> float:
        return counter_sum(getattr(self, attr), self.n_warps)

    def totals(self) -> dict[str, float]:
        return {
            attr: self.total(attr)
            for attr in ("load_instrs", "sectors", "flops", "shuffles", "barriers", "atomics")
        }


@dataclass
class LaunchConfig:
    """Simulated CUDA launch configuration."""

    grid_ctas: int
    threads_per_cta: int
    registers_per_thread: int
    shared_mem_per_cta: int

    @property
    def warps_per_cta(self) -> int:
        return (self.threads_per_cta + 31) // 32

    @property
    def total_warps(self) -> int:
        return self.grid_ctas * self.warps_per_cta


@dataclass
class KernelTrace:
    """Everything the cost model needs about one kernel launch."""

    kernel_name: str
    launch: LaunchConfig
    phases: list[Phase] = field(default_factory=list)

    @property
    def n_warps(self) -> int:
        return self.launch.total_warps

    def add_phase(
        self,
        name: str,
        kind: str,
        *,
        load_instrs: float | np.ndarray = 0.0,
        ilp: float = 1.0,
        sectors: float | np.ndarray = 0.0,
        flops: float | np.ndarray = 0.0,
        shuffles: float | np.ndarray = 0.0,
        barriers: float | np.ndarray = 0.0,
        atomics: float | np.ndarray = 0.0,
        atomic_conflict_degree: float = 1.0,
    ) -> Phase:
        """Append a phase; scalar counters stay unexpanded (broadcast)."""
        if kind not in PHASE_KINDS:
            raise ConfigError(f"phase kind {kind!r} not in {PHASE_KINDS}")
        if ilp < 1.0:
            raise ConfigError("ilp must be >= 1")
        n = self.n_warps
        phase = Phase(
            name=name,
            kind=kind,
            n_warps=n,
            load_instrs=_as_counter(load_instrs, n, "load_instrs"),
            ilp=float(ilp),
            sectors=_as_counter(sectors, n, "sectors"),
            flops=_as_counter(flops, n, "flops"),
            shuffles=_as_counter(shuffles, n, "shuffles"),
            barriers=_as_counter(barriers, n, "barriers"),
            atomics=_as_counter(atomics, n, "atomics"),
            atomic_conflict_degree=float(atomic_conflict_degree),
        )
        self.phases.append(phase)
        return phase

    def counters(self) -> dict[str, float]:
        """Aggregate counters over all phases (the cost report's ``counters``)."""
        out: dict[str, float] = {}
        for phase in self.phases:
            for key, val in phase.totals().items():
                out[key] = out.get(key, 0.0) + val
        return out
