"""Fig 11: data load dominates sparse-kernel time (Observation #2).

The paper measures the full kernel end-to-end and a load-only partial
prototype.  We do the same through the cost model: price the full trace
and the trace restricted to its load phases, reporting the load
fraction for both GNNOne kernels across the datasets.
"""

from __future__ import annotations

import numpy as np

from repro.bench.harness import experiment
from repro.bench.report import ExperimentResult
from repro.gpusim.cost import estimate_cost
from repro.gpusim.device import A100
from repro.kernels.gnnone import GnnOneSDDMM, GnnOneSpMM
from repro.sparse.datasets import DESIGN_SWEEP_KEYS, QUICK_KEYS, load_dataset

DIM = 32


@experiment("fig11")
def run(*, quick: bool = False) -> ExperimentResult:
    keys = QUICK_KEYS if quick else DESIGN_SWEEP_KEYS
    result = ExperimentResult(
        "fig11",
        f"Data-load vs total kernel time at dim {DIM} (load fraction, higher = load-bound)",
        ["dataset", "kernel", "total_us", "load_us", "load_fraction"],
    )
    for key in keys:
        A = load_dataset(key).coo
        for name, kernel in (("spmm", GnnOneSpMM()), ("sddmm", GnnOneSDDMM())):
            res = kernel.simulate(A, DIM)
            load = estimate_cost(res.trace, A100, phase_kinds=("load",))
            result.add_row(
                dataset=key,
                kernel=name,
                total_us=res.time_us,
                load_us=load.time_us,
                load_fraction=load.time_us / res.time_us,
            )
    frac = result.numeric_column("load_fraction")
    result.notes.append(
        f"mean load fraction: {float(np.mean(frac)):.2f} "
        "(paper: loading NZEs and features is the main phase even after optimization)"
    )
    return result
