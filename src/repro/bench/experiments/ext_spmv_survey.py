"""Extension study: the wider SpMV design space around Fig 12.

Adds the classic CSR-scalar / CSR-vector kernels and degree-binned SpMV
(the §6 related-work designs) to the Fig-12 comparison, showing where
the nonzero-split family (GNNOne COO, Merrill merge-path, Dalton) sits
relative to the row-parallel lineage on balanced vs skewed graphs.
"""

from __future__ import annotations

from repro.bench.harness import experiment
from repro.bench.report import ExperimentResult
from repro.kernels.registry import spmv_kernel, spmv_kernel_names
from repro.sparse.datasets import QUICK_KEYS, load_dataset

DATASETS = ("G3", "G5", "G10", "G11", "G14")


@experiment("ext-spmv")
def run(*, quick: bool = False) -> ExperimentResult:
    keys = QUICK_KEYS if quick else DATASETS
    names = spmv_kernel_names()
    result = ExperimentResult(
        "ext-spmv",
        "Extension: SpMV design-space survey (simulated us; lower is better)",
        ["dataset", *names],
    )
    for key in keys:
        A = load_dataset(key).coo
        row: dict = {"dataset": key}
        for name in names:
            row[name] = spmv_kernel(name).simulate(A, 1).time_us
        result.add_row(**row)
    # The nonzero-split family should dominate csr-scalar everywhere and
    # csr-vector on skewed graphs.
    result.notes.append(
        "nonzero-split family (gnnone / merge-spmv / dalton) vs the "
        "row-parallel lineage (csr-scalar / csr-vector / binned)"
    )
    return result
