"""Fig 8: SDDMM optimization ablation at feature length 32.

Three configurations of GNNOne's own SDDMM:

* **baseline** — edge-parallel COO, balanced, but no NZE caching, no
  row-feature reuse, scalar feature-parallel lanes ("roughly mimics the
  DGL SDDMM design ideas");
* **+data-reuse** — Stage-1 NZE caching plus row-feature reuse
  (paper: 2.78x over baseline);
* **+float4** — the full design with vector loads and thread groups
  (paper: a further 1.80x, 4.59x total).
"""

from __future__ import annotations

from repro.bench.harness import experiment
from repro.bench.report import ExperimentResult
from repro.kernels.gnnone import (
    ABLATION_BASELINE,
    ABLATION_DATA_REUSE,
    ABLATION_FULL,
    GnnOneSDDMM,
)
from repro.sparse.datasets import DESIGN_SWEEP_KEYS, QUICK_KEYS, load_dataset

DIM = 32
CONFIGS = (
    ("baseline", ABLATION_BASELINE),
    ("+data-reuse", ABLATION_DATA_REUSE),
    ("+float4", ABLATION_FULL),
)


@experiment("fig08")
def run(*, quick: bool = False) -> ExperimentResult:
    keys = QUICK_KEYS if quick else DESIGN_SWEEP_KEYS
    result = ExperimentResult(
        "fig08",
        f"SDDMM ablation at dim {DIM}: baseline -> +data-reuse -> +float4 (us)",
        ["dataset", "baseline_us", "reuse_us", "float4_us", "reuse_speedup", "total_speedup"],
    )
    for key in keys:
        A = load_dataset(key).coo
        times = {name: GnnOneSDDMM(cfg).simulate(A, DIM).time_us for name, cfg in CONFIGS}
        result.add_row(
            dataset=key,
            baseline_us=times["baseline"],
            reuse_us=times["+data-reuse"],
            float4_us=times["+float4"],
            reuse_speedup=times["baseline"] / times["+data-reuse"],
            total_speedup=times["baseline"] / times["+float4"],
        )
    result.notes.append(
        f"geomean: +data-reuse {result.geomean('reuse_speedup'):.2f}x (paper 2.78x), "
        f"total {result.geomean('total_speedup'):.2f}x (paper 4.59x)"
    )
    return result
