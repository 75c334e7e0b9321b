"""Sparse-matrix / graph substrate: formats, generators, datasets."""

from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.convert import add_self_loops, symmetrize
from repro.sparse.stats import GraphStats, graph_stats
from repro.sparse.datasets import (
    KERNEL_SWEEP_KEYS,
    QUICK_KEYS,
    REGISTRY,
    DatasetSpec,
    LoadedDataset,
    get_spec,
    load_dataset,
    table1_rows,
)

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "add_self_loops",
    "symmetrize",
    "GraphStats",
    "graph_stats",
    "KERNEL_SWEEP_KEYS",
    "QUICK_KEYS",
    "REGISTRY",
    "DatasetSpec",
    "LoadedDataset",
    "get_spec",
    "load_dataset",
    "table1_rows",
]
