"""Sparse-matrix / graph substrate: formats, generators, datasets."""

from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.convert import (
    add_self_loops,
    from_scipy,
    symmetrize,
    transpose_coo,
)
from repro.sparse.stats import GraphStats, graph_stats, warp_imbalance_vertex_parallel
from repro.sparse.datasets import (
    KERNEL_SWEEP_KEYS,
    QUICK_KEYS,
    REGISTRY,
    TRAINING_KEYS,
    DatasetSpec,
    LoadedDataset,
    all_keys,
    get_spec,
    load_dataset,
    table1_rows,
)

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "add_self_loops",
    "from_scipy",
    "symmetrize",
    "transpose_coo",
    "GraphStats",
    "graph_stats",
    "warp_imbalance_vertex_parallel",
    "KERNEL_SWEEP_KEYS",
    "QUICK_KEYS",
    "REGISTRY",
    "TRAINING_KEYS",
    "DatasetSpec",
    "LoadedDataset",
    "all_keys",
    "get_spec",
    "load_dataset",
    "table1_rows",
]
