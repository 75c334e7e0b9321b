"""Fused attention kernels — the paper's stated future work.

Section 5.3.2: "We believe kernel fusion would provide even better
performance to GNNOne, which we left as future work."  This module
implements that extension on the same two-stage substrate: one launch
computes a GAT layer's whole edge pipeline

    e = LeakyReLU(el[row] + er[col]);  alpha = edge_softmax(e);
    Y += alpha * X[col]   (running reduction per row segment)

reusing the Stage-1 NZE cache across all three logical ops, eliminating
the intermediate |E|-sized score/alpha tensors from DRAM entirely (they
live in registers/shared memory), and paying a second lightweight pass
for the softmax normalizer.

Cost structure per warp (all measured from real index arrays):

* Stage 1 once (instead of three times for unfused SDDMM-variant,
  softmax and SpMM launches);
* pass A: gather el/er scalars, segment max+sum in shared memory;
* pass B: reload cached NZEs (still resident), gather X[col] feature
  rows, scale by alpha from registers, running reduction as in SpMM;
* zero DRAM traffic for e/alpha (the unfused pipeline writes and reads
  them 3x), and two launches' overhead saved.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.atomics import conflict_degree
from repro.gpusim.device import DeviceSpec
from repro.gpusim.memory import feature_row_sectors, unique_per_warp
from repro.gpusim.trace import KernelTrace, LaunchConfig
from repro.kernels.base import KernelResult
from repro.gpusim.cost import estimate_cost
from repro.gpusim.device import get_device
from repro.kernels.gnnone.config import BASE_REGISTERS, DEFAULT_CONFIG, GnnOneConfig
from repro.kernels.gnnone.reduction import _segment_rows
from repro.kernels.gnnone.scheduler import plan_schedule
from repro.kernels.gnnone.stage1 import plan_stage1, record_stage1
from repro.sparse.coo import COOMatrix


def fused_gat_attention_numerics(
    coo: COOMatrix,
    el: np.ndarray,
    er: np.ndarray,
    X: np.ndarray,
    *,
    negative_slope: float = 0.2,
) -> tuple[np.ndarray, np.ndarray]:
    """Reference numerics of the fused layer: returns (alpha, Y)."""
    from repro.exec import get_engine

    # Both halves route through the execution engine.
    engine = get_engine()
    alpha = engine.gat_alpha(coo, el, er, negative_slope=negative_slope)
    Y = engine.spmm(coo, alpha, X)
    return alpha, Y


class GnnOneFusedGATLayer:
    """Single-launch fused GAT edge pipeline on the two-stage substrate."""

    name = "gnnone-fused-gat"
    format = "coo"
    kind = "fused-gat"

    def __init__(self, config: GnnOneConfig = DEFAULT_CONFIG):
        self.config = config

    def cache_token(self):
        return (type(self).__qualname__, self.config)

    def __call__(
        self,
        A: COOMatrix,
        el: np.ndarray,
        er: np.ndarray,
        X: np.ndarray,
        *,
        device: DeviceSpec | str | None = None,
    ) -> KernelResult:
        from repro.kernels.base import _cache_lookup, _cache_store

        dev = get_device(device)
        coo = A if A.is_csr_ordered() else A.sort_csr_order()
        F = X.shape[1]
        key, hit = _cache_lookup(self, A, F, dev)
        if hit is not None:
            _, Y = fused_gat_attention_numerics(coo, el, er, X)
            return KernelResult(Y, hit.cost, hit.trace, hit.preprocess_seconds)
        trace = self.simulate(coo, F, dev)
        _, Y = fused_gat_attention_numerics(coo, el, er, X)
        cost = estimate_cost(trace, dev)
        if key is not None:
            _cache_store(key, cost, trace, 0.0)
        return KernelResult(Y, cost, trace, 0.0)

    def simulate(self, coo: COOMatrix, F: int, dev: DeviceSpec) -> KernelTrace:
        """Structural half: plans + trace for the fused two-pass launch."""
        cfg = self.config
        s1 = plan_stage1(coo.nnz, cfg.cache_size, with_edge_values=False)
        sched = plan_schedule(coo.rows, s1.chunks.chunk_of_nze, s1.chunks.n_chunks, cfg, F)
        grid = max(1, (s1.chunks.n_chunks + cfg.warps_per_cta - 1) // cfg.warps_per_cta)
        # Alpha values for the warp's cached NZEs live in shared memory
        # between the two passes: +4B per cached NZE.
        smem = (s1.smem_bytes_per_warp + 4 * cfg.cache_size) * cfg.warps_per_cta
        launch = LaunchConfig(grid, cfg.threads_per_cta,
                              BASE_REGISTERS + 2 * sched.shape.vector_width, smem)
        trace = KernelTrace(self.name, launch)

        record_stage1(trace, s1, dev)
        sizes = s1.chunks.chunk_sizes.astype(np.float64)
        n_warps = s1.chunks.n_chunks

        # Pass A: el/er scalar gathers (el dedupes per row segment, er per
        # column sector) + segment max/sum with one barrier each.
        el_sectors = unique_per_warp(
            s1.chunks.chunk_of_nze, coo.rows.astype(np.int64) // 8, n_warps
        )
        er_sectors = unique_per_warp(
            s1.chunks.chunk_of_nze, coo.cols.astype(np.int64) // 8, n_warps
        )
        trace.add_phase(
            "fused_score_pass",
            "load",
            load_instrs=2.0 * np.ceil(sizes / 32.0),
            ilp=4.0,
            sectors=el_sectors + er_sectors,
            flops=sizes * 4.0,  # add + leaky-relu + exp approx + div
            barriers=2.0,
            shuffles=2.0 * np.ceil(np.log2(np.maximum(sizes, 2.0))),
        )

        # Pass B: feature gather + alpha-scaled running reduction —
        # identical load structure to GNNOne SpMM Stage 2.
        steps = sched.steps_per_warp(sizes)
        trace.add_phase(
            "fused_aggregate_pass",
            "load",
            load_instrs=steps * sched.shape.loads_per_thread,
            ilp=float(dev.max_outstanding_loads),
            sectors=sizes * feature_row_sectors(F * 4),
            flops=sizes * 2.0 * F,
        )
        segments = sched.segments_per_warp().astype(np.float64)
        seg_rows = _segment_rows(coo.rows, sched)
        trace.add_phase(
            "fused_writeback",
            "reduce",
            atomics=np.ceil(segments / sched.shape.groups_per_warp)
            * sched.shape.vector_width,
            atomic_conflict_degree=conflict_degree(seg_rows) if seg_rows.size else 1.0,
        )
        trace.add_phase(
            "output_store", "store",
            sectors=segments * feature_row_sectors(F * 4),
        )
        return trace

    def memory_bytes(self, num_vertices: int, num_edges: int, feature_length: int) -> int:
        # No |E|-sized intermediates: scores/alphas never touch DRAM.
        coo = 8 * num_edges
        dense = 4 * num_vertices * (2 + 2 * feature_length)  # el, er, X, Y
        return coo + dense


def unfused_gat_pipeline_time_us(
    A: COOMatrix,
    el: np.ndarray,
    er: np.ndarray,
    X: np.ndarray,
    *,
    device: DeviceSpec | str | None = None,
    config: GnnOneConfig = DEFAULT_CONFIG,
) -> float:
    """Simulated time of the equivalent unfused GNNOne pipeline.

    u_add_v (an F=1 SDDMM) + two element-wise passes + a segment-sum
    SpMV for the softmax + the alpha-weighted SpMM — the sequence the
    GAT model runs today.  Used by the fusion ablation benchmark.
    """
    from repro.gpusim.dense import elementwise_cost
    from repro.kernels.gnnone.sddmm import GnnOneSDDMM
    from repro.kernels.gnnone.spmm import GnnOneSpMM
    from repro.kernels.gnnone.spmv import GnnOneSpMV

    dev = get_device(device)
    coo = A if A.is_csr_ordered() else A.sort_csr_order()
    alpha, _ = fused_gat_attention_numerics(coo, el, er, X)
    total = 0.0
    total += GnnOneSDDMM(config)(coo, el.reshape(-1, 1), er.reshape(-1, 1), device=dev).time_us
    total += 2 * elementwise_cost(dev, coo.nnz, reads=2, writes=1).time_us
    total += GnnOneSpMV()(coo, np.abs(alpha), np.ones(coo.num_cols), device=dev).time_us
    total += GnnOneSpMM(config)(coo, alpha, X, device=dev).time_us
    return total
