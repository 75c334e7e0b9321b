"""The two-stage data-load planner every GNNOne kernel launches from.

SpMM, SDDMM and the fused GAT layer differ only in what Stage 2 does
with the data: all three sort the graph to CSR order, plan the Stage-1
edge-parallel NZE cache, hand the cached NZEs to thread groups under
the symbiotic schedule, and size the launch from the same shapes.
:func:`plan_two_stage` is that one plan; each kernel adds only its
register and shared-memory extras and then records its own
Stage-2/reduction phases.

:func:`plan_unified_load` is the same plan, exposed for introspection:
it wraps :func:`plan_two_stage` in an ``engine.plan`` span carrying the
plan's :meth:`~UnifiedLoadPlan.summary`, so users (and the
design-choice benchmarks) can see *why* a configuration behaves the way
it does — how balanced the data load is, how many row segments each
thread group sees, and how much shared memory the cache costs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.gpusim.device import DeviceSpec
from repro.gpusim.trace import KernelTrace, LaunchConfig
from repro.gpusim.warp import ThreadGroupShape
from repro.kernels.gnnone.config import BASE_REGISTERS, DEFAULT_CONFIG, GnnOneConfig
from repro.kernels.gnnone.scheduler import SchedulePlan, plan_schedule
from repro.kernels.gnnone.stage1 import Stage1Plan, plan_stage1, record_stage1
from repro.sparse.coo import COOMatrix


@dataclass(frozen=True)
class UnifiedLoadPlan:
    """Stage-1 cache, Stage-2 schedule and launch shape of one launch."""

    config: GnnOneConfig
    feature_length: int
    #: the graph in CSR order (the order both stages walk)
    coo: COOMatrix
    stage1: Stage1Plan
    schedule: SchedulePlan
    launch: LaunchConfig

    @property
    def shape(self) -> ThreadGroupShape:
        return self.schedule.shape

    def begin_trace(self, kernel_name: str, device: DeviceSpec) -> KernelTrace:
        """A trace for this launch with the Stage-1 load phase recorded."""
        trace = KernelTrace(kernel_name, self.launch)
        record_stage1(trace, self.stage1, device)
        return trace

    def load_balance(self) -> float:
        """Max/mean NZEs per warp — 1.0 means perfectly balanced.

        Edge-parallel Stage 1 guarantees this is ~1.0 up to the final
        partial chunk.
        """
        sizes = self.stage1.chunks.chunk_sizes.astype(np.float64)
        mean = sizes.mean() if sizes.size else 1.0
        return float(sizes.max() / mean) if mean > 0 else 1.0

    def mean_segments_per_slice(self) -> float:
        segs = self.schedule.segments_per_slice
        return float(segs.mean()) if segs.size else 0.0

    def row_reuse_factor(self) -> float:
        """NZEs per row segment: how many SDDMM row-feature loads the
        Consecutive schedule saves (1.0 = no reuse possible)."""
        segs = float(self.schedule.segments_per_slice.sum())
        nnz = int(self.stage1.chunks.chunk_of_nze.shape[0])
        return nnz / segs if segs else 1.0

    def shared_memory_per_cta(self) -> int:
        return self.launch.shared_mem_per_cta

    def summary(self) -> dict[str, float | int | str]:
        return {
            "cache_size": self.config.cache_size,
            "schedule": self.config.schedule,
            "vector_width": self.shape.vector_width,
            "threads_per_group": self.shape.threads_per_group,
            "groups_per_warp": self.shape.groups_per_warp,
            "reduction_rounds": self.shape.reduction_rounds,
            "load_balance": self.load_balance(),
            "row_reuse_factor": self.row_reuse_factor(),
            "smem_per_cta": self.shared_memory_per_cta(),
        }


def plan_two_stage(
    A: COOMatrix,
    feature_length: int,
    config: GnnOneConfig,
    *,
    kind: str,
    with_edge_values: bool,
    vectors_per_thread: int = 1,
    extra_smem_per_warp: int = 0,
) -> UnifiedLoadPlan:
    """Plan one GNNOne launch of ``A`` at ``feature_length``.

    ``with_edge_values`` caches the per-NZE edge value next to the NZE
    tuple (SpMM).  ``vectors_per_thread`` feature vectors stay live in
    each thread's registers on top of :data:`BASE_REGISTERS`, and
    ``extra_smem_per_warp`` bytes of shared memory ride beside the
    Stage-1 cache; both are the calling kernel's own extras.
    """
    cfg = config
    F = feature_length
    coo = A.sort_csr_order()
    with obs.span("gnnone.stage1", kind=kind, nnz=coo.nnz,
                  cache_size=cfg.cache_size) as sp:
        s1 = plan_stage1(
            coo.nnz, cfg.cache_size, with_edge_values=with_edge_values,
            enable_cache=cfg.enable_nze_cache,
        )
        sp.set(n_chunks=s1.chunks.n_chunks, smem_bytes_per_warp=s1.smem_bytes_per_warp)
    with obs.span("gnnone.schedule", kind=kind, schedule=cfg.schedule, f=F) as sp:
        sched = plan_schedule(coo.rows, s1.chunks.chunk_of_nze, s1.chunks.n_chunks, cfg, F)
        sp.set(vector_width=sched.shape.vector_width,
               threads_per_group=sched.shape.threads_per_group)
    launch = LaunchConfig(
        grid_ctas=max(1, (s1.chunks.n_chunks + cfg.warps_per_cta - 1) // cfg.warps_per_cta),
        threads_per_cta=cfg.threads_per_cta,
        registers_per_thread=BASE_REGISTERS + vectors_per_thread * sched.shape.vector_width,
        shared_mem_per_cta=(s1.smem_bytes_per_warp + extra_smem_per_warp) * cfg.warps_per_cta,
    )
    return UnifiedLoadPlan(cfg, F, coo, s1, sched, launch)


def plan_unified_load(
    A: COOMatrix,
    feature_length: int,
    *,
    config: GnnOneConfig = DEFAULT_CONFIG,
    with_edge_values: bool = False,
) -> UnifiedLoadPlan:
    """Plan the two-stage data load for ``A`` at ``feature_length``."""
    with obs.span("engine.plan", f=feature_length, nnz=A.nnz,
                  cache_size=config.cache_size) as sp:
        plan = plan_two_stage(A, feature_length, config, kind="plan",
                              with_edge_values=with_edge_values)
        sp.set(**plan.summary())
    return plan
