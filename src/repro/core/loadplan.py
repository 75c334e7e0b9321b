"""Unified data-load plan: introspection for the two-stage design.

The kernels build their Stage-1/Stage-2 plans internally; this module
exposes the same planning as a standalone object so users (and the
design-choice benchmarks) can inspect *why* a configuration behaves the
way it does — how balanced the data load is, how many row segments each
thread group sees, how much shared memory the cache costs, and what the
scheduler's shapes look like for a given feature length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.gpusim.warp import ThreadGroupShape
from repro.kernels.gnnone.config import DEFAULT_CONFIG, GnnOneConfig
from repro.kernels.gnnone.scheduler import SchedulePlan, plan_schedule
from repro.kernels.gnnone.stage1 import Stage1Plan, plan_stage1
from repro.sparse.coo import COOMatrix


@dataclass(frozen=True)
class UnifiedLoadPlan:
    """Combined Stage-1 + scheduler plan for one kernel invocation."""

    config: GnnOneConfig
    feature_length: int
    stage1: Stage1Plan
    schedule: SchedulePlan

    @property
    def shape(self) -> ThreadGroupShape:
        return self.schedule.shape

    def load_balance(self) -> float:
        """Max/mean NZEs per warp — 1.0 means perfectly balanced.

        Edge-parallel Stage 1 guarantees this is ~1.0 up to the final
        partial chunk; compare with
        :func:`repro.sparse.stats.warp_imbalance_vertex_parallel`.
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
        return self.stage1.smem_bytes_per_warp * self.config.warps_per_cta

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
        coo = A if A.is_csr_ordered() else A.sort_csr_order()
        s1 = plan_stage1(
            coo.nnz,
            config.cache_size,
            with_edge_values=with_edge_values,
            enable_cache=config.enable_nze_cache,
        )
        sched = plan_schedule(
            coo.rows, s1.chunks.chunk_of_nze, s1.chunks.n_chunks, config, feature_length
        )
        plan = UnifiedLoadPlan(config, feature_length, s1, sched)
        sp.set(**plan.summary())
    return plan
