"""dgSparse SDDMM [3] — the kernel dgNN [47] fuses into its GAT.

Vertex-parallel (vertex-centric "downgrade" of SDDMM, per the paper's
taxonomy) over CSR, but better engineered than FeatGraph's template:
the row's X features live in registers for the whole row, column loads
are vectorized with float2 and modestly pipelined.  The paper measures
dgSparse ~2x faster than DGL's reuse-free edge-parallel SDDMM at F=32,
yet ~4x slower than GNNOne — imbalance and the per-NZE reduction
barrier still bind it.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.device import DeviceSpec
from repro.gpusim.memory import feature_row_sectors
from repro.gpusim.trace import KernelTrace, LaunchConfig
from repro.gpusim.warp import feature_parallel_shape
from repro.kernels.base import SDDMMKernel
from repro.sparse.coo import COOMatrix


class DgSparseSDDMM(SDDMMKernel):
    name = "dgsparse-sddmm"
    format = "csr"

    #: SDDMM output is per-edge, so long rows split across warps freely
    #: (each warp reloads X[row] once); dgSparse caps the per-warp row
    #: chunk, which tames — but does not remove — the hub imbalance.
    row_split = 256

    def execute(self, A: COOMatrix, feature_length: int, device: DeviceSpec) -> KernelTrace:
        from repro.kernels.baselines.common import build_warp_rows

        csr = A.to_csr()
        F = feature_length
        shape = feature_parallel_shape(F)
        ftiles = max(1, -(-F // 32))
        _, counts = build_warp_rows(csr, self.row_split)
        deg = np.repeat(counts.astype(np.float64), ftiles)
        n_warps = counts.size * ftiles
        threads_per_cta = 128
        wpc = threads_per_cta // 32
        grid = max(1, (n_warps + wpc - 1) // wpc)
        trace = KernelTrace(self.name, LaunchConfig(grid, threads_per_cta, 38, 0))
        tile_f = min(F, 32)
        trace.add_phase(
            "row_feature_load", "load", load_instrs=1.0, ilp=2.0,
            sectors=float(feature_row_sectors(tile_f * 4)),
        )
        # float2 column loads: half the instructions of scalar lanes,
        # two NZEs' loads in flight before the reduction.
        trace.add_phase(
            "col_loads",
            "load",
            load_instrs=deg * 1.5,  # id broadcast + float2 feature loads
            ilp=3.0,
            sectors=deg * (1.0 + feature_row_sectors(tile_f * 4)),
            flops=deg * 2.0 * tile_f,
        )
        rounds = max(shape.reduction_rounds - 1, 1)  # float2 lanes: 16 lanes
        trace.add_phase(
            "tree_reduction", "reduce", shuffles=deg * rounds, barriers=deg * 0.5
        )
        trace.add_phase("edge_store", "store", sectors=np.ceil(deg / 8.0))
        return trace

    def memory_bytes(self, num_vertices: int, num_edges: int, feature_length: int) -> int:
        csr = 4 * num_edges + 4 * (num_vertices + 1)
        return csr + 4 * num_edges + 8 * num_vertices * feature_length
