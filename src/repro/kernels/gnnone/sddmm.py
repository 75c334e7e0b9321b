"""GNNOne SDDMM: two-stage data load + thread-group tree reduction.

``W[e] <- <X[row_e], Y[col_e]>`` over the CSR-ordered COO.  Stage 1
caches NZE tuples (novel for SDDMM — prior works reload ids); Stage 2
reuses the row's features across a segment of consecutive NZEs and
fetches column features with float4 vector loads, quadrupling the loads
in flight before the reduction's memory barrier (Section 4.2.1).
Stage 1 and the schedule are the shared
:func:`~repro.kernels.gnnone.planner.plan_two_stage` plan SpMM launches
from too — the two kernels differ only in the reduction dimension.
"""

from __future__ import annotations

from repro import obs
from repro.gpusim.device import DeviceSpec
from repro.gpusim.trace import KernelTrace
from repro.kernels.base import SDDMMKernel
from repro.kernels.gnnone.config import DEFAULT_CONFIG, GnnOneConfig
from repro.kernels.gnnone.planner import plan_two_stage
from repro.kernels.gnnone.reduction import record_reduction_sddmm
from repro.kernels.gnnone.stage2 import record_stage2_sddmm
from repro.sparse.coo import COOMatrix


class GnnOneSDDMM(SDDMMKernel):
    """The paper's unified SDDMM kernel (COO format)."""

    format = "coo"

    def __init__(self, config: GnnOneConfig = DEFAULT_CONFIG):
        self.config = config
        self.name = f"gnnone-sddmm[c{config.cache_size},{config.schedule}]"

    def cache_token(self):
        # The display name omits ablation switches; key on the full config.
        return (type(self).__qualname__, self.config)

    def execute(self, A: COOMatrix, feature_length: int, device: DeviceSpec) -> KernelTrace:
        """The shared two-stage plan, then the SDDMM Stage-2 and reduction phases."""
        F = feature_length
        # Each thread holds a row-feature and a column-feature vector.
        plan = plan_two_stage(A, F, self.config, kind="sddmm", with_edge_values=False,
                              vectors_per_thread=2)
        s1, sched = plan.stage1, plan.schedule
        with obs.span("gnnone.stage2", kind="sddmm", f=F, grid_ctas=plan.launch.grid_ctas):
            trace = plan.begin_trace(self.name, device)
            record_stage2_sddmm(
                trace, s1, sched, F, device, row_reuse=self.config.enable_row_reuse
            )
            record_reduction_sddmm(trace, s1, sched, device)
        return trace

    def memory_bytes(self, num_vertices: int, num_edges: int, feature_length: int) -> int:
        coo_topology = 8 * num_edges
        dense = 4 * num_vertices * feature_length * 2  # X and Y
        edge_out = 4 * num_edges
        return coo_topology + dense + edge_out
