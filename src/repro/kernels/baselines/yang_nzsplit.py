"""Yang et al. (Euro-Par'18 [42]): nonzero-split SpMM, extended from SpMV.

The cautionary tale the paper dissects in Section 3.2: the SpMV
nonzero-split is lifted to SpMM *as is*, materializing one partial dot
product per (NZE, feature) in registers until the final inter-thread
reduction.  With feature length F that is ~F extra registers per
thread; ptxas spills past 255 and occupancy collapses, so the GPU
cannot keep enough loads in flight and the balanced data load is wasted
— Yang et al. themselves report it losing to their vanilla
vertex-parallel SpMM, which is exactly the relation our Fig-4 harness
checks.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.device import DeviceSpec
from repro.gpusim.memory import feature_row_sectors, streaming_sectors
from repro.gpusim.trace import KernelTrace, LaunchConfig
from repro.kernels.base import SpMMKernel
from repro.sparse.coo import COOMatrix
from repro.sparse.partition import edge_chunks, segments_in_slices


class YangNonzeroSplitSpMM(SpMMKernel):
    name = "yang-nzsplit-spmm"
    format = "coo"

    #: NZEs per warp (the nonzero split grain).
    chunk = 32

    def execute(self, A: COOMatrix, feature_length: int, device: DeviceSpec) -> KernelTrace:
        coo = A if A.is_csr_ordered() else A.sort_csr_order()
        F = feature_length
        tile_f = min(F, 32)
        ftiles = max(1, -(-F // 32))
        chunks = edge_chunks(coo.nnz, self.chunk)
        sizes = np.repeat(chunks.chunk_sizes.astype(np.float64), ftiles)
        n_warps = chunks.n_chunks * ftiles
        threads_per_cta = 128
        wpc = threads_per_cta // 32
        grid = max(1, (n_warps + wpc - 1) // wpc)

        # Register materialization: one float per cached NZE per lane's
        # feature -> ~chunk partials live simultaneously.  This is the
        # occupancy killer (spills past the architectural limit).
        registers = 32 + self.chunk + tile_f
        smem = 0
        launch = LaunchConfig(grid, threads_per_cta, registers, smem)
        trace = KernelTrace(self.name, launch)

        trace.add_phase(
            "nze_load",
            "load",
            load_instrs=3.0 * np.ceil(sizes / 32),
            ilp=3.0,
            sectors=3.0 * streaming_sectors(sizes, 4),
        )
        trace.add_phase(
            "feature_load",
            "load",
            load_instrs=sizes,
            ilp=2.0,  # partial-product register pressure stalls the pipe
            sectors=sizes * feature_row_sectors(tile_f * 4),
            flops=sizes * 2.0 * tile_f,
        )
        # Deferred reduction: all partials exchanged through shared
        # memory at the end of the chunk (no running reduction).
        segs = np.repeat(
            segments_in_slices(coo.rows, chunks.chunk_of_nze, chunks.n_chunks), ftiles
        ).astype(np.float64)
        trace.add_phase(
            "deferred_reduction",
            "reduce",
            shuffles=sizes,  # pairwise exchange of materialized partials
            barriers=np.ceil(np.log2(np.maximum(sizes, 2.0))),
            atomics=segs,
            atomic_conflict_degree=1.2,
        )
        trace.add_phase(
            "output_store", "store",
            sectors=segs * feature_row_sectors(tile_f * 4),
        )
        return trace

    def memory_bytes(self, num_vertices: int, num_edges: int, feature_length: int) -> int:
        coo = 8 * num_edges
        return coo + 4 * num_edges + 8 * num_vertices * feature_length
