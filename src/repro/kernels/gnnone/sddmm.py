"""GNNOne SDDMM: two-stage data load + thread-group tree reduction.

``W[e] <- <X[row_e], Y[col_e]>`` over the CSR-ordered COO.  Stage 1
caches NZE tuples (novel for SDDMM — prior works reload ids); Stage 2
reuses the row's features across a segment of consecutive NZEs and
fetches column features with float4 vector loads, quadrupling the loads
in flight before the reduction's memory barrier (Section 4.2.1).
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.gpusim.device import DeviceSpec
from repro.gpusim.trace import KernelTrace, LaunchConfig
from repro.kernels.base import SDDMMKernel
from repro.kernels.gnnone.config import BASE_REGISTERS, DEFAULT_CONFIG, GnnOneConfig
from repro.kernels.gnnone.reduction import record_reduction_sddmm
from repro.kernels.gnnone.scheduler import plan_schedule
from repro.kernels.gnnone.stage1 import plan_stage1, record_stage1
from repro.kernels.gnnone.stage2 import record_stage2_sddmm
from repro.sparse.coo import COOMatrix


def gathered_dot_sddmm(A: COOMatrix, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Per-edge dot products computed the kernel's way.

    Each thread group's slice walks its NZEs: gather the two feature
    rows, elementwise-multiply, tree-reduce.  Vectorized, that is a
    row-gathered einsum — numerically identical to the per-group loops.
    """
    if A.nnz == 0:
        return np.zeros(0, dtype=np.float64)
    return np.einsum("ef,ef->e", X[A.rows], Y[A.cols])


class GnnOneSDDMM(SDDMMKernel):
    """The paper's unified SDDMM kernel (COO format)."""

    format = "coo"

    def __init__(self, config: GnnOneConfig = DEFAULT_CONFIG):
        self.config = config
        self.name = f"gnnone-sddmm[c{config.cache_size},{config.schedule}]"

    def cache_token(self):
        # The display name omits ablation switches; key on the full config.
        return (type(self).__qualname__, self.config)

    def simulate(self, A: COOMatrix, F: int, device: DeviceSpec) -> KernelTrace:
        """Structural half: Stage-1 plan, schedule, and trace recording."""
        cfg = self.config
        coo = A.sort_csr_order()

        with obs.span("gnnone.stage1", kind="sddmm", nnz=coo.nnz,
                      cache_size=cfg.cache_size) as sp:
            s1 = plan_stage1(
                coo.nnz, cfg.cache_size, with_edge_values=False, enable_cache=cfg.enable_nze_cache
            )
            sp.set(n_chunks=s1.chunks.n_chunks, smem_bytes_per_warp=s1.smem_bytes_per_warp)
        with obs.span("gnnone.schedule", kind="sddmm", schedule=cfg.schedule, f=F) as sp:
            sched = plan_schedule(coo.rows, s1.chunks.chunk_of_nze, s1.chunks.n_chunks, cfg, F)
            sp.set(vector_width=sched.shape.vector_width,
                   threads_per_group=sched.shape.threads_per_group)

        grid = max(1, (s1.chunks.n_chunks + cfg.warps_per_cta - 1) // cfg.warps_per_cta)
        launch = LaunchConfig(
            grid_ctas=grid,
            threads_per_cta=cfg.threads_per_cta,
            registers_per_thread=BASE_REGISTERS + 2 * sched.shape.vector_width,
            shared_mem_per_cta=s1.smem_bytes_per_warp * cfg.warps_per_cta,
        )
        trace = KernelTrace(self.name, launch)
        with obs.span("gnnone.stage2", kind="sddmm", f=F, grid_ctas=grid):
            record_stage1(trace, s1, device)
            record_stage2_sddmm(
                trace, s1, sched, F, device, row_reuse=cfg.enable_row_reuse
            )
            record_reduction_sddmm(trace, s1, sched, device)
        return trace

    def execute(
        self, A: COOMatrix, X: np.ndarray, Y: np.ndarray, device: DeviceSpec
    ) -> tuple[np.ndarray, KernelTrace, float]:
        trace = self.simulate(A, X.shape[1], device)
        return self.compute(A, X, Y), trace, 0.0

    def memory_bytes(self, num_vertices: int, num_edges: int, feature_length: int) -> int:
        coo_topology = 8 * num_edges
        dense = 4 * num_vertices * feature_length * 2  # X and Y
        edge_out = 4 * num_edges
        return coo_topology + dense + edge_out
