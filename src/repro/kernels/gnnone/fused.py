"""Fused attention kernels — the paper's stated future work.

Section 5.3.2: "We believe kernel fusion would provide even better
performance to GNNOne, which we left as future work."  This module
implements that extension on the same two-stage substrate: one launch
computes a GAT layer's whole edge pipeline

    e = LeakyReLU(el[row] + er[col]);  alpha = edge_softmax(e);
    Y += alpha * X[col]   (running reduction per row segment)

launching from the same two-stage plan as SpMM and SDDMM
(:func:`~repro.kernels.gnnone.planner.plan_two_stage`, so the Fig-8
``enable_nze_cache`` ablation applies here too), reusing the Stage-1
NZE cache across all three logical ops, eliminating the intermediate
|E|-sized score/alpha tensors from DRAM entirely (they live in
registers/shared memory), and paying a second lightweight pass for the
softmax normalizer.

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

from repro.errors import FormatError
from repro.gpusim.atomics import conflict_degree
from repro.gpusim.device import DeviceSpec, get_device
from repro.gpusim.memory import feature_row_sectors, unique_per_warp
from repro.gpusim.trace import KernelTrace
from repro.kernels.base import KernelResult, _Kernel, check_numeric
from repro.kernels.gnnone.config import DEFAULT_CONFIG, GnnOneConfig
from repro.kernels.gnnone.planner import plan_two_stage
from repro.kernels.gnnone.reduction import _segment_rows
from repro.kernels.gnnone.stage2 import nze_reread
from repro.sparse.coo import COOMatrix


def fused_gat_attention_numerics(
    coo: COOMatrix,
    el: np.ndarray,
    er: np.ndarray,
    X: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Reference numerics of the fused layer: returns (alpha, Y)."""
    from repro.exec import get_engine

    # Both halves route through the execution engine.
    engine = get_engine()
    alpha = engine.gat_alpha(coo, el, er)
    Y = engine.spmm(coo, alpha, X)
    return alpha, Y


class GnnOneFusedGATLayer(_Kernel):
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
        check_numeric(el=el, er=er, X=X)
        if np.shape(el) != (A.num_rows,) or np.shape(er) != (A.num_cols,):
            raise FormatError(
                f"el and er must have shapes ({A.num_rows},) and ({A.num_cols},), "
                f"got {np.shape(el)} and {np.shape(er)}"
            )
        if np.ndim(X) != 2 or np.shape(X)[0] != A.num_cols:
            raise FormatError(f"X must have shape ({A.num_cols}, F), got {np.shape(X)}")
        return self._launch(A, device, (el, er, X), np.shape(X)[1])

    def compute(self, A: COOMatrix, el: np.ndarray, er: np.ndarray, X: np.ndarray) -> np.ndarray:
        coo = A.sort_csr_order()
        return fused_gat_attention_numerics(coo, el, er, X)[1]

    def execute(self, A: COOMatrix, feature_length: int, device: DeviceSpec) -> KernelTrace:
        """The shared two-stage plan, then the fused two-pass phases."""
        F = feature_length
        # Alpha values for the warp's cached NZEs live in shared memory
        # between the two passes: +4B per cached NZE.
        plan = plan_two_stage(
            A, F, self.config, kind=self.kind, with_edge_values=False,
            vectors_per_thread=2, extra_smem_per_warp=4 * self.config.cache_size,
        )
        coo, s1, sched = plan.coo, plan.stage1, plan.schedule
        trace = plan.begin_trace(self.name, device)
        sizes = s1.chunks.chunk_sizes.astype(np.float64)
        n_warps = s1.chunks.n_chunks

        # Pass A: el/er scalar gathers (el dedupes per row segment, er per
        # column sector) + segment max/sum with one barrier each.  Each
        # thread takes one NZE per step.
        score_steps = np.ceil(sizes / 32.0)
        reread_loads, reread_sectors = nze_reread(s1, score_steps)
        el_sectors = unique_per_warp(
            s1.chunks.chunk_of_nze, coo.rows.astype(np.int64) // 8, n_warps
        )
        er_sectors = unique_per_warp(
            s1.chunks.chunk_of_nze, coo.cols.astype(np.int64) // 8, n_warps
        )
        trace.add_phase(
            "fused_score_pass",
            "load",
            load_instrs=2.0 * score_steps + reread_loads,
            ilp=4.0,
            sectors=el_sectors + er_sectors + reread_sectors,
            flops=sizes * 4.0,  # add + leaky-relu + exp approx + div
            barriers=2.0,
            shuffles=2.0 * np.ceil(np.log2(np.maximum(sizes, 2.0))),
        )

        # Pass B: feature gather + alpha-scaled running reduction —
        # identical load structure to GNNOne SpMM Stage 2.
        steps = sched.steps_per_warp(sizes)
        reread_loads, reread_sectors = nze_reread(s1, steps)
        trace.add_phase(
            "fused_aggregate_pass",
            "load",
            load_instrs=steps * sched.shape.loads_per_thread + reread_loads,
            ilp=float(device.max_outstanding_loads),
            sectors=sizes * feature_row_sectors(F * 4) + reread_sectors,
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


def unfused_gat_pipeline_time_us(
    A: COOMatrix,
    feature_length: int,
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
    coo = A.sort_csr_order()
    total = 0.0
    total += GnnOneSDDMM(config).simulate(coo, 1, device=dev).time_us
    total += 2 * elementwise_cost(dev, coo.nnz, reads=2, writes=1).time_us
    total += GnnOneSpMV().simulate(coo, 1, device=dev).time_us
    total += GnnOneSpMM(config).simulate(coo, feature_length, device=dev).time_us
    return total
