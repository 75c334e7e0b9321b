"""GNNOne SpMM: two-stage data load + running reduction over COO.

``Y <- A_w X`` where the sparse matrix carries per-NZE edge values.
Stage 1 streams NZE tuples + edge values into shared memory (edge
parallel, fully balanced); the symbiotic scheduler hands consecutive
cached NZEs to thread groups; Stage 2 gathers column features with
vector loads and folds the multiply into a thread-local running
reduction, flushed by atomicAdd at each row split (Sections 4.1-4.3).
The Stage-1 cache, schedule and launch shape come from the shared
:func:`~repro.kernels.gnnone.planner.plan_two_stage`; this module
records only the SpMM Stage-2 and reduction phases.
"""

from __future__ import annotations

from repro import obs
from repro.gpusim.device import DeviceSpec
from repro.gpusim.trace import KernelTrace
from repro.kernels.base import SpMMKernel
from repro.kernels.gnnone.config import DEFAULT_CONFIG, GnnOneConfig
from repro.kernels.gnnone.planner import plan_two_stage
from repro.kernels.gnnone.reduction import record_reduction_spmm
from repro.kernels.gnnone.stage2 import record_stage2_spmm
from repro.sparse.coo import COOMatrix


class GnnOneSpMM(SpMMKernel):
    """The paper's unified SpMM kernel (COO format)."""

    format = "coo"

    def __init__(self, config: GnnOneConfig = DEFAULT_CONFIG):
        self.config = config
        self.name = f"gnnone-spmm[c{config.cache_size},{config.schedule}]"

    def cache_token(self):
        # The display name omits ablation switches; key on the full config.
        return (type(self).__qualname__, self.config)

    def execute(self, A: COOMatrix, feature_length: int, device: DeviceSpec) -> KernelTrace:
        """The shared two-stage plan, then the SpMM Stage-2 and reduction phases."""
        F = feature_length
        # Stage 1 caches the edge values too; the running reduction keeps
        # one vector of accumulators live per thread.
        plan = plan_two_stage(A, F, self.config, kind="spmm", with_edge_values=True)
        coo, s1, sched = plan.coo, plan.stage1, plan.schedule
        with obs.span("gnnone.stage2", kind="spmm", f=F, grid_ctas=plan.launch.grid_ctas):
            trace = plan.begin_trace(self.name, device)
            record_stage2_spmm(trace, s1, sched, F, device, cols=coo.cols)
            record_reduction_spmm(trace, s1, sched, coo.rows, F, device)
        return trace

    def memory_bytes(self, num_vertices: int, num_edges: int, feature_length: int) -> int:
        coo_topology = 8 * num_edges
        edge_vals = 4 * num_edges
        dense = 4 * num_vertices * feature_length * 2  # X and Y
        return coo_topology + edge_vals + dense
