"""Quickstart: run GNNOne's unified sparse kernels on a graph.

The public API mirrors the paper's two basic kernels (Section 2):

* ``spmm``  — Y = A_w X   (vertex-level output, |V| x F)
* ``sddmm`` — W = A (.) (X Y^T)  (edge-level output, |E|)

Every call computes the exact numerical result with NumPy and prices
the kernel on the simulated A100, returning a CostReport with the
simulated time, DRAM traffic, occupancy and imbalance.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import core, obs
from repro.sparse import generators, graph_stats


def main() -> None:
    # A scale-free graph like the ones GNNs train on (Table-1 class).
    graph = generators.power_law(20_000, 12.0, seed=1)
    stats = graph_stats(graph)
    print(f"graph: |V|={stats.num_vertices:,} |E|={stats.num_edges:,} "
          f"avg_deg={stats.avg_degree:.1f} max_deg={stats.max_degree} "
          f"(degree CV {stats.degree_cv:.2f})")

    rng = np.random.default_rng(0)
    F = 32
    X = rng.standard_normal((graph.num_cols, F))
    edge_values = rng.standard_normal(graph.nnz)

    # ---- SpMM: Y = A_w X -------------------------------------------
    Y, report = core.spmm(graph, edge_values, X)
    print(f"\nSpMM  -> Y{Y.shape}: {report.time_us:8.1f} simulated us, "
          f"{report.dram_bytes / 1e6:.1f} MB DRAM, "
          f"occupancy {report.occupancy.active_warps_per_sm} warps/SM")

    # ---- SDDMM: W[e] = <X[row_e], Y[col_e]> ------------------------
    Xr = rng.standard_normal((graph.num_rows, F))
    W, report = core.sddmm(graph, Xr, X)
    print(f"SDDMM -> W{W.shape}: {report.time_us:8.1f} simulated us, "
          f"{report.dram_bytes / 1e6:.1f} MB DRAM")

    # ---- compare against a baseline design -------------------------
    _, dgl_report = core.sddmm(graph, Xr, X, backend="dgl")
    print(f"\nDGL's edge-parallel SDDMM (no caching, no reuse): "
          f"{dgl_report.time_us:8.1f} us "
          f"-> GNNOne is {dgl_report.time_us / report.time_us:.2f}x faster")

    # ---- introspect the unified two-stage data-load plan ------------
    plan = core.plan_unified_load(graph, F)
    print("\nunified data-load plan:", plan.summary())

    # ---- let the autotuner confirm the paper's configuration --------
    tuned = core.autotune(graph, F, "spmm")
    print(f"autotuned config: cache_size={tuned.config.cache_size}, "
          f"schedule={tuned.config.schedule!r} ({tuned.time_us:.1f} us)")

    # ---- trace a kernel call with the observability layer -----------
    with obs.capture() as records:
        core.spmm(graph, edge_values, X)
    print("\nspans of one traced SpMM call (simulated time):")
    for rec in records:
        if rec.get("type") == "span":
            sim = rec.get("sim_us")
            sim_txt = "-" if sim is None else f"{sim:.1f} us"
            print(f"  {rec['name']}  {sim_txt}")


if __name__ == "__main__":
    main()
