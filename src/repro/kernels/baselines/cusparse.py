"""CuSparse-style kernels.

* :class:`CuSparseSpMM` — the vendor CSR SpMM: vertex-parallel with row
  splitting (long rows capped per warp, partials merged atomically), a
  mature, decently tuned kernel.  The paper measures GNNOne ~2.65x
  faster at F=32: the vendor kernel balances *long* rows but still pays
  broadcast id reads, scalar feature-parallel lanes and split overhead.
* :class:`CuSparseSDDMM` — the recently-introduced ``cusparseSDDMM``
  (CSR only), which the paper finds *extremely slow*: its design is not
  feature-parallel; each thread owns one NZE and strides through the
  feature dimension with scalar loads, so warp accesses are scattered
  and every 4-byte element costs a full 32-byte sector.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.device import DeviceSpec
from repro.gpusim.memory import streaming_sectors
from repro.gpusim.trace import KernelTrace, LaunchConfig
from repro.kernels.base import SDDMMKernel, SpMMKernel
from repro.kernels.baselines.common import vertex_parallel_spmm_trace
from repro.sparse.coo import COOMatrix
from repro.sparse.partition import edge_chunks

#: NZEs per warp before CuSparse splits a row across warps.
_ROW_SPLIT = 256


class CuSparseSpMM(SpMMKernel):
    name = "cusparse-spmm"
    format = "csr"

    def execute(self, A: COOMatrix, feature_length: int, device: DeviceSpec) -> KernelTrace:
        csr = A.to_csr()
        trace = vertex_parallel_spmm_trace(
            self.name,
            csr,
            feature_length,
            device,
            row_split=_ROW_SPLIT,
            cache_col_ids=True,
            ilp=3.0,
            registers=40,
        )
        return trace

    def memory_bytes(self, num_vertices: int, num_edges: int, feature_length: int) -> int:
        csr = 4 * num_edges + 4 * (num_vertices + 1)
        workspace = 4 * num_edges  # cusparse external buffer
        return csr + workspace + 4 * num_edges + 8 * num_vertices * feature_length


class CuSparseSDDMM(SDDMMKernel):
    name = "cusparse-sddmm"
    format = "csr"

    def execute(self, A: COOMatrix, feature_length: int, device: DeviceSpec) -> KernelTrace:
        F = feature_length
        # One thread per NZE, 32 NZEs per warp; each thread strides the
        # feature dimension with scalar loads -> scattered sectors.
        chunks = edge_chunks(A.nnz, 32)
        sizes = chunks.chunk_sizes.astype(np.float64)
        threads_per_cta = 128
        warps_per_cta = threads_per_cta // 32
        grid = max(1, (chunks.n_chunks + warps_per_cta - 1) // warps_per_cta)
        launch = LaunchConfig(grid, threads_per_cta, 36, 0)
        trace = KernelTrace(self.name, launch)
        trace.add_phase(
            "nze_load",
            "load",
            load_instrs=2 * np.ceil(sizes / 32),
            ilp=2.0,
            sectors=2 * streaming_sectors(sizes, 4),
        )
        # CSR gives no row id per NZE: each thread binary-searches the
        # offset array (log2 V dependent scattered probes).
        search = float(np.ceil(np.log2(max(A.num_rows, 2))))
        trace.add_phase(
            "row_search",
            "load",
            load_instrs=search,
            ilp=1.0,  # each probe depends on the previous
            sectors=search,
        )
        # 2F scalar loads per NZE, every element its own sector; the
        # strided per-thread F-loop cannot pipeline (address updates
        # serialize), keeping ~1 load in flight.
        trace.add_phase(
            "feature_gather",
            "load",
            load_instrs=sizes * 2.0 * F / 32.0,
            ilp=1.0,
            sectors=sizes * 2.0 * F,
            flops=sizes * 2.0 * F,
        )
        trace.add_phase("edge_store", "store", sectors=streaming_sectors(sizes, 4))
        return trace

    def memory_bytes(self, num_vertices: int, num_edges: int, feature_length: int) -> int:
        csr = 4 * num_edges + 4 * (num_vertices + 1)
        return csr + 4 * num_edges * 2 + 8 * num_vertices * feature_length
