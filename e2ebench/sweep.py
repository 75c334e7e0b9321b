"""``sweep``: cold simulation of the Fig-4 SpMM (slot a) and Fig-3 SDDMM
(slot b) cells for G3, G6 and G14 at F=32.

Each op is one pass over the slot's six kernels (GNNOne and its five
baselines) on the three graphs, with the plan cache cleared first.  This
is the paper's product -- simulated GNNOne-vs-baseline times -- and the
only workload dominated by kernel ``execute``/trace recording,
``gpusim.estimate_cost`` and ``sparse`` partitioning.  It bypasses plan
-cache replay, so replay-path gains should not move it, and simulator
gains should not move ``train``'s p50s.  The seed sets the operands.
"""

from __future__ import annotations

import numpy as np

from repro.bench.experiments import fig03_sddmm, fig04_spmm
from repro.bench.harness import kernel_fits, sweep_operands
from repro.core import clear_plan_cache
from repro.errors import KernelLaunchError
from repro.exec import get_engine
from repro.gpusim.device import get_device
from repro.kernels.base import reference_sddmm, reference_spmm
from repro.kernels.registry import sddmm_kernel, spmm_kernel
from repro.sparse.datasets import get_spec, load_dataset

from e2ebench import stats
from e2ebench.runner import Outcome

DATASETS = ("G3", "G6", "G14")
FEATURES = 32
KERNELS = {
    "a": ("spmm", ("gnnone",) + fig04_spmm.BASELINES),
    "b": ("sddmm", ("gnnone",) + fig03_sddmm.BASELINES),
}
#: cells allowed to end in OOM or a launch error: at F=32 every cell fits
EXPECTED_FAILURES: frozenset[tuple[str, str, str]] = frozenset()
#: GNNOne output vs the scipy/einsum reference
RTOL = ATOL = 1e-10


class Sweep:
    setups = 3
    loaded_share = 0.0

    def __init__(self, seed: int, outcome: Outcome):
        self.seed = seed
        self.outcome = outcome
        self.device = get_device(None)
        self.passes = 0

    def _pass(self, slot: str) -> tuple[dict, tuple[str, np.ndarray]]:
        """One pass: ``{(dataset, kernel): sim_us | failure}`` plus the GNNOne
        output of the sampled dataset, kept for the reference check."""
        kind, names = KERNELS[slot]
        registry = spmm_kernel if kind == "spmm" else sddmm_kernel
        sample = DATASETS[(self.seed + self.passes) % len(DATASETS)]
        cells: dict[tuple[str, str], float | str] = {}
        kept = None
        for key in DATASETS:
            spec = get_spec(key)
            A, vals, X_cols, X_rows = sweep_operands(key, FEATURES, self.seed)
            for name in names:
                kernel = registry(name)
                if not kernel_fits(kernel, spec, FEATURES, self.device):
                    cells[key, name] = "oom"
                    continue
                try:
                    if kind == "spmm":
                        result = kernel(A, vals, X_cols, device=self.device)
                    else:
                        result = kernel(A, X_rows, X_cols, device=self.device)
                except KernelLaunchError:
                    cells[key, name] = "launch-error"
                    continue
                cells[key, name] = result.time_us
                if name == "gnnone" and key == sample:
                    kept = (key, result.output)
                else:
                    get_engine().release(result.output)
        self.passes += 1
        return cells, kept

    def _check_output(self, slot: str, kept) -> bool:
        key, out = kept
        A, vals, X_cols, X_rows = sweep_operands(key, FEATURES, self.seed)
        if KERNELS[slot][0] == "spmm":
            ref = reference_spmm(A, vals, X_cols)
        else:
            ref = reference_sddmm(A, X_rows, X_cols)
        return bool(np.allclose(out, ref, rtol=RTOL, atol=ATOL))

    def setup(self) -> None:
        """Dataset and operand build, plus the first (lazy) pass of each kind."""
        load_dataset.cache_clear()
        sweep_operands.cache_clear()
        for key in DATASETS:
            sweep_operands(key, FEATURES, self.seed)
        self.reference = {}
        for slot in KERNELS:
            clear_plan_cache()
            cells, kept = self._pass(slot)
            self.reference[slot] = cells
            failures = {(slot, *cell) for cell, v in cells.items() if isinstance(v, str)}
            self.outcome.check(failures == EXPECTED_FAILURES,
                               f"unexpected failing cells: {sorted(failures)}")
            self.outcome.check(self._check_output(slot, kept),
                               f"{slot}: GNNOne output on {kept[0]} != reference")

    def op(self, slot: str, probe) -> None:
        clear_plan_cache()
        with probe.op(slot):
            cells, kept = self._pass(slot)
        self.outcome.check(
            cells == self.reference[slot] and self._check_output(slot, kept),
            f"{slot} pass {self.passes}: cells or sampled output differ",
        )

    def finish(self) -> None:
        pass

    def _launches(self, slot: str) -> int:
        return sum(not isinstance(v, str) for v in self.reference[slot].values())

    def _gnnone_us(self, slot: str) -> float:
        return sum(v for (key, name), v in self.reference[slot].items() if name == "gnnone")

    def end_to_end(self, probe) -> dict[str, float]:
        a, b = probe.ops["a"], probe.ops["b"]
        launches = self._launches("a") + self._launches("b")
        return {
            "a_p50_ms": stats.median(a) * 1e3,
            "b_p50_ms": stats.median(b) * 1e3,
            "a_sim_us": self._gnnone_us("a"),
            "b_sim_us": self._gnnone_us("b"),
            # median over the interleaved (SpMM, SDDMM) pass pairs
            "ops_per_s": stats.median([launches / (ta + tb) for ta, tb in zip(a, b)]),
        }

    def layer_extras(self) -> dict[str, float]:
        ratios = [
            cells[key, name] / cells[key, "gnnone"]
            for cells in self.reference.values()
            for (key, name), v in cells.items()
            if name != "gnnone" and not isinstance(v, str)
        ]
        return {"sim.speedup_geomean": stats.geomean(ratios)}

    def close(self) -> None:
        pass
