"""Sputnik (Gale et al., SC'20 [11]).

* :class:`SputnikSDDMM` — the open-source SDDMM launches a 2-D grid of
  ``|V| x |V|`` thread blocks (one per potential output tile), relying
  on early exit for empty tiles.  Two consequences the paper reports:
  above ~2M vertices the block count exceeds what CUDA accepts (we
  raise :class:`KernelLaunchError` past the grid limit), and below it
  the dispatch of millions of empty blocks dominates (~90x slower than
  GNNOne on Reddit).
* :class:`SputnikSpMM` — row-swizzled vertex-parallel SpMM with vector
  loads: the custom row-ordering metadata shortens the tail but a hub
  row still serializes on one warp.  (The paper's Fig 4 does not sweep
  Sputnik SpMM; we include it for the ablation/extension studies.)
"""

from __future__ import annotations

import numpy as np

from repro.errors import KernelLaunchError
from repro.gpusim.device import DeviceSpec
from repro.gpusim.memory import feature_row_sectors
from repro.gpusim.trace import KernelTrace, LaunchConfig
from repro.gpusim.warp import feature_parallel_shape
from repro.kernels.base import SDDMMKernel, SpMMKernel
from repro.kernels.baselines.common import vertex_parallel_spmm_trace
from repro.sparse.coo import COOMatrix
from repro.sparse.formats.row_swizzle import build_row_swizzle

#: Cycles an empty (early-exit) block costs the GPU's block dispatcher.
_EMPTY_BLOCK_CYCLES = 25.0


class SputnikSDDMM(SDDMMKernel):
    name = "sputnik-sddmm"
    format = "csr"

    def execute(self, A: COOMatrix, feature_length: int, device: DeviceSpec) -> KernelTrace:
        V = A.num_rows
        grid_blocks = V * V
        if grid_blocks > device.max_grid_blocks:
            raise KernelLaunchError(
                f"{self.name}: |V|^2 = {grid_blocks} thread blocks exceed the CUDA "
                f"grid limit ({device.max_grid_blocks}); the paper observes this "
                f"failure above roughly 2M vertices"
            )
        F = feature_length
        shape = feature_parallel_shape(F)
        csr = A.to_csr()
        deg = csr.row_degrees().astype(np.float64)
        # Non-empty tiles do real work; the (V^2 - nnz-tiles) rest still
        # cost a dispatch + the indptr probe that discovers emptiness.
        n_warps = grid_blocks  # one warp per block (32-thread blocks)
        launch = LaunchConfig(grid_blocks, 32, 32, 0)
        trace = KernelTrace(self.name, launch)
        # Emptiness probe: two indptr reads per block.
        trace.add_phase(
            "tile_probe", "load", load_instrs=2.0, ilp=1.0, sectors=1.0,
            flops=_EMPTY_BLOCK_CYCLES * 2.0,  # dispatch overhead as issue work
        )
        # Real tiles (nnz of them across the grid): amortize per warp.
        per_warp_nze = A.nnz / max(n_warps, 1)
        tile_f = min(F, 32)
        trace.add_phase(
            "feature_load",
            "load",
            load_instrs=per_warp_nze * 2.0,
            ilp=2.0,
            sectors=per_warp_nze * 2.0 * feature_row_sectors(tile_f * 4),
            flops=per_warp_nze * 2.0 * tile_f,
        )
        trace.add_phase(
            "tree_reduction", "reduce",
            shuffles=per_warp_nze * shape.reduction_rounds,
            barriers=per_warp_nze,
        )
        trace.add_phase("edge_store", "store", sectors=per_warp_nze)
        return trace

    def memory_bytes(self, num_vertices: int, num_edges: int, feature_length: int) -> int:
        csr = 4 * num_edges + 4 * (num_vertices + 1)
        return csr + 4 * num_edges + 8 * num_vertices * feature_length


class SputnikSpMM(SpMMKernel):
    name = "sputnik-spmm"
    format = "row-swizzle"

    def execute(self, A: COOMatrix, feature_length: int, device: DeviceSpec) -> KernelTrace:
        csr = A.to_csr()
        fmt = build_row_swizzle(csr)
        # Row swizzling reorders warps by decreasing length: tail waves
        # pack better, modeled by the LPT scheduler seeing sorted CTAs;
        # the kernel itself is a well-vectorized vertex-parallel SpMM.
        trace = vertex_parallel_spmm_trace(
            self.name,
            csr,
            feature_length,
            device,
            row_split=None,
            cache_col_ids=True,
            ilp=6.0,
            registers=38,
        )
        return trace

    def memory_bytes(self, num_vertices: int, num_edges: int, feature_length: int) -> int:
        csr = 4 * num_edges + 4 * (num_vertices + 1)
        swizzle = 4 * num_vertices
        return csr + swizzle + 4 * num_edges + 8 * num_vertices * feature_length
