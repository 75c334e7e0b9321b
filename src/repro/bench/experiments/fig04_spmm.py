"""Fig 4: SpMM speedup of GNNOne over prior works per feature length.

Paper series: GE-SpMM, CuSparse, Huang et al., FeatGraph, GNNAdvisor
(log scale; a bar at 256 marks a baseline OOM where GNNOne ran; "OOM"
cells mean every system failed).  Paper headline: average 6.25x, with
GE-SpMM dropping caching and Huang/GNNAdvisor idling lanes below dim 32.
"""

from __future__ import annotations

from repro.bench.harness import FEATURE_LENGTHS, experiment, sweep_points, time_kernel
from repro.bench.report import SPMM_OOM_SPEEDUP, ExperimentResult, speedup_cell
from repro.sparse.datasets import KERNEL_SWEEP_KEYS, QUICK_KEYS

BASELINES = ("ge-spmm", "cusparse", "huang", "featgraph", "gnnadvisor")


def _point_row(point: tuple[str, int]) -> dict:
    """One (dataset, dim) cell row — independent of every other point."""
    key, dim = point
    ours = time_kernel("spmm", "gnnone", key, dim)
    row: dict = {"dataset": key, "dim": dim, "gnnone_us": ours}
    for base in BASELINES:
        row[base] = speedup_cell(
            time_kernel("spmm", base, key, dim), ours, oom_marker=SPMM_OOM_SPEEDUP
        )
    row["status"] = "ok"
    return row


@experiment("fig04")
def run(*, quick: bool = False) -> ExperimentResult:
    keys = QUICK_KEYS if quick else KERNEL_SWEEP_KEYS
    result = ExperimentResult(
        "fig04",
        "SpMM: GNNOne speedup over prior works (x; 256 = baseline OOM, OOM = everyone)",
        ["dataset", "dim", "gnnone_us", *BASELINES, "status"],
    )
    grid = [(key, dim) for key in keys for dim in FEATURE_LENGTHS]
    rows = sweep_points(
        _point_row, grid, label="bench.sweep.fig04",
        error_row=lambda p, e: {
            "dataset": p[0], "dim": p[1],
            "status": "error", "error": f"{type(e).__name__}: {e}",
        },
    )
    for row in rows:
        result.add_row(**row)
    for base in BASELINES:
        result.notes.append(f"geomean speedup over {base}: {result.geomean(base):.2f}x")
    result.notes.append(
        "paper dim-32 averages: GE-SpMM 3.84x, CuSparse 2.65x, GNNAdvisor 2.90x, "
        "Huang 1.34x; dim-16: 13.90x/3.57x/6.25x/1.71x; overall 6.25x"
    )
    return result
