"""GNNOne reproduction: unified system optimizations for GNN kernels.

Reproduction of Gong & Kumar, *GNNOne: A Unified System Optimizations
for GNN Kernels* (HPDC 2024), on a simulated GPU substrate:

* :mod:`repro.core` — public API (``spmm`` / ``sddmm`` / ``spmv``),
* :mod:`repro.kernels` — GNNOne's two-stage kernels + all baselines,
* :mod:`repro.gpusim` — the simulated A100 and its cost model,
* :mod:`repro.sparse` — formats, generators, Table-1 dataset stand-ins,
* :mod:`repro.nn` — autograd + GCN/GIN/GAT training stack,
* :mod:`repro.bench` — one experiment module per paper table/figure,
* :mod:`repro.obs` — span tracing and run-diff tooling.
"""

__version__ = "1.0.0"

__all__ = ["sddmm", "spmm", "spmv", "__version__"]


def __getattr__(name: str):
    # Resolved on first access, so ``python -m repro.settings`` starts
    # without loading the kernel stack.
    if name in ("sddmm", "spmm", "spmv"):
        from repro import core

        return getattr(core, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
