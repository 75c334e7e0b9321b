"""Fig 3: SDDMM speedup of GNNOne over prior works per feature length.

Paper series: dgSparse, CuSparse, Sputnik, FeatGraph, DGL across the
Table-1 datasets at dims 6/16/32/64 (log scale; a bar at 64 marks a
baseline that OOM'd where GNNOne ran).  Paper headline: average 6.02x
(excluding Sputnik/CuSparse, which are one-two orders slower), with
larger speedups at small feature lengths.
"""

from __future__ import annotations

from repro.bench.harness import FEATURE_LENGTHS, experiment, sweep_points, time_kernel
from repro.bench.report import SDDMM_OOM_SPEEDUP, ExperimentResult, speedup_cell
from repro.sparse.datasets import KERNEL_SWEEP_KEYS, QUICK_KEYS

BASELINES = ("dgsparse", "cusparse", "sputnik", "featgraph", "dgl")


def _point_row(point: tuple[str, int]) -> dict:
    """One (dataset, dim) cell row — independent of every other point."""
    key, dim = point
    ours = time_kernel("sddmm", "gnnone", key, dim)
    row: dict = {"dataset": key, "dim": dim, "gnnone_us": ours}
    for base in BASELINES:
        base_us = time_kernel("sddmm", base, key, dim)
        cell = speedup_cell(base_us, ours, oom_marker=SDDMM_OOM_SPEEDUP)
        # Sputnik's |V|^2-grid failure is a launch error, not OOM.
        if base == "sputnik" and base_us is None and ours is not None:
            cell = "ERR"
        row[base] = cell
    row["status"] = "ok"
    return row


@experiment("fig03")
def run(*, quick: bool = False) -> ExperimentResult:
    keys = QUICK_KEYS if quick else KERNEL_SWEEP_KEYS
    result = ExperimentResult(
        "fig03",
        "SDDMM: GNNOne speedup over prior works (x; 64 = baseline OOM, ERR = launch failure)",
        ["dataset", "dim", "gnnone_us", *BASELINES, "status"],
    )
    grid = [(key, dim) for key in keys for dim in FEATURE_LENGTHS]
    rows = sweep_points(
        _point_row, grid, label="bench.sweep.fig03",
        error_row=lambda p, e: {
            "dataset": p[0], "dim": p[1],
            "status": "error", "error": f"{type(e).__name__}: {e}",
        },
    )
    for row in rows:
        result.add_row(**row)
    for base in BASELINES:
        gm = result.geomean(base)
        result.notes.append(f"geomean speedup over {base}: {gm:.2f}x")
    result.notes.append(
        "paper: avg 6.02x over dgSparse/FeatGraph/DGL; 1-2 orders over Sputnik/CuSparse; "
        "Sputnik errors above ~2M vertices"
    )
    return result
