"""Shared machinery for baseline kernels.

Most prior SpMM systems are variations of the vertex-parallel skeleton:
a warp owns one row (possibly split/tiled), loops over the row's NZEs,
and accumulates into registers.  ``vertex_parallel_spmm_trace``
parameterizes the axes the paper distinguishes:

* ``row_split`` — maximum NZEs per warp (None = whole row on one warp:
  the pure vertex-parallel imbalance GE-SpMM/FeatGraph suffer; CuSparse
  caps it, paying atomics for partial results);
* ``cache_col_ids`` — stage the 32-NZE id block in shared memory
  (GE-SpMM when F >= 32) or re-read ids per NZE (FeatGraph, and
  GE-SpMM's documented behaviour when F < 32);
* ``ilp`` — outstanding feature loads the design sustains.

Feature-parallel lane mapping is the *vanilla* one throughout (scalar
loads, idle lanes when F < 32) — thread-grouping is GNNOne's novelty.
"""

from __future__ import annotations

import math

import numpy as np

from repro.gpusim.device import DeviceSpec
from repro.gpusim.memory import feature_row_sectors, streaming_sectors
from repro.gpusim.trace import KernelTrace, LaunchConfig
from repro.gpusim.warp import feature_parallel_shape
from repro.sparse.csr import CSRMatrix


def build_warp_rows(csr: CSRMatrix, row_split: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Per-warp (row id, NZE count) after optional row splitting."""
    deg = csr.row_degrees()
    if row_split is None:
        rows = np.arange(csr.num_rows, dtype=np.int64)
        return rows, deg.astype(np.int64)
    pieces = np.maximum(1, (deg + row_split - 1) // row_split)
    warp_row = np.repeat(np.arange(csr.num_rows, dtype=np.int64), pieces)
    first = np.zeros(csr.num_rows + 1, dtype=np.int64)
    np.cumsum(pieces, out=first[1:])
    within = np.arange(warp_row.size, dtype=np.int64) - first[warp_row]
    counts = np.minimum(deg[warp_row] - within * row_split, row_split)
    return warp_row, np.maximum(counts, 0).astype(np.int64)


def vertex_parallel_spmm_trace(
    kernel_name: str,
    csr: CSRMatrix,
    feature_length: int,
    device: DeviceSpec,
    *,
    row_split: int | None = None,
    cache_col_ids: bool = True,
    ilp: float = 4.0,
    registers: int = 34,
    threads_per_cta: int = 128,
) -> KernelTrace:
    """Trace for the vertex-parallel SpMM family.

    The warp's feature mapping follows :func:`feature_parallel_shape`;
    for ``F > 32`` the row is tiled across ``ceil(F/32)`` warps, each of
    which redundantly walks the row's ids (CTA-level smem sharing is
    credited when ``cache_col_ids``).
    """
    shape = feature_parallel_shape(feature_length)
    ftiles = max(1, math.ceil(feature_length / 32))
    warp_row, counts = build_warp_rows(csr, row_split)
    counts = counts.astype(np.float64)
    n_row_warps = warp_row.size
    n_warps = n_row_warps * ftiles

    # Tile the per-row-warp counters across feature tiles.
    counts_t = np.repeat(counts, ftiles)
    warps_per_cta = threads_per_cta // 32
    grid = max(1, (n_warps + warps_per_cta - 1) // warps_per_cta)
    caching = cache_col_ids and feature_length >= 32
    smem_per_cta = (32 * 8) * warps_per_cta if caching else 0
    launch = LaunchConfig(grid, threads_per_cta, registers, smem_per_cta)
    trace = KernelTrace(kernel_name, launch)

    # --- NZE id (+ value) load -------------------------------------
    if caching:
        # Coalesced block fetch of 32 ids+values, one barrier per block;
        # with feature tiling the CTA's warps share the staged block.
        blocks = np.ceil(counts_t / 32)
        id_instrs = blocks * 2.0 / ftiles  # col ids + edge values
        id_sectors = 2.0 * streaming_sectors(counts_t, 4) / ftiles
        barriers = blocks
        id_ilp = 2.0
    else:
        # Per-NZE broadcast read of the id and value: one instruction and
        # one sector each (the warp reads a single 4B word; consecutive
        # NZEs' ids share sectors through L1, so the reads pipeline).
        id_instrs = counts_t * 2.0
        id_sectors = counts_t * 2.0
        barriers = 0.0
        id_ilp = 4.0
    trace.add_phase(
        "row_nze_load", "load", load_instrs=id_instrs, ilp=id_ilp, sectors=id_sectors,
        barriers=barriers,
    )

    # --- feature gather + FMA --------------------------------------
    feat_instrs = counts_t * shape.loads_per_thread
    tile_f = min(feature_length, 32)
    feat_sectors = counts_t * feature_row_sectors(tile_f * 4)
    trace.add_phase(
        "feature_load",
        "load",
        load_instrs=feat_instrs,
        ilp=min(ilp, device.max_outstanding_loads),
        sectors=feat_sectors,
        flops=counts_t * 2.0 * tile_f,
    )

    # --- write-back --------------------------------------------------
    out_sectors = np.full(n_warps, feature_row_sectors(tile_f * 4))
    if row_split is None:
        trace.add_phase("row_store", "store", sectors=out_sectors)
    else:
        # Split rows need atomic accumulation of partials.
        trace.add_phase(
            "row_store", "store", sectors=out_sectors, atomics=1.0,
            atomic_conflict_degree=1.2,
        )
    return trace
