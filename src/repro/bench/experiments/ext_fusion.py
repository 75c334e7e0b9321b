"""Extension study: kernel fusion on GNNOne's substrate (paper §5.3.2).

The paper leaves fusion as future work after showing GNNOne's *unfused*
kernels already beat dgNN's fused ones.  This experiment completes the
thought: fusing the GAT edge pipeline (score -> edge softmax -> weighted
aggregation) into one launch on the two-stage substrate removes the
|E|-sized intermediates from DRAM and two launch overheads.
"""

from __future__ import annotations

from repro.bench.harness import experiment
from repro.bench.report import ExperimentResult
from repro.kernels.gnnone.fused import (
    GnnOneFusedGATLayer,
    unfused_gat_pipeline_time_us,
)
from repro.sparse.datasets import DESIGN_SWEEP_KEYS, QUICK_KEYS, load_dataset

DIM = 16


@experiment("ext-fusion")
def run(*, quick: bool = False) -> ExperimentResult:
    keys = QUICK_KEYS if quick else DESIGN_SWEEP_KEYS
    result = ExperimentResult(
        "ext-fusion",
        f"Extension: fused GAT edge pipeline vs unfused GNNOne kernels (dim {DIM})",
        ["dataset", "unfused_us", "fused_us", "speedup", "dram_saved_mb"],
    )
    fused_kernel = GnnOneFusedGATLayer()
    for key in keys:
        A = load_dataset(key).coo
        fused = fused_kernel.simulate(A, DIM)
        unfused = unfused_gat_pipeline_time_us(A, DIM)
        # The unfused pipeline writes + reads e and alpha (|E| floats, 3x).
        saved = 3 * 4 * A.nnz / 1e6
        result.add_row(
            dataset=key,
            unfused_us=unfused,
            fused_us=fused.time_us,
            speedup=unfused / fused.time_us,
            dram_saved_mb=saved,
        )
    result.notes.append(
        f"geomean fusion speedup: {result.geomean('speedup'):.2f}x "
        "(paper: 'kernel fusion would provide even better performance', left as future work)"
    )
    return result
