"""The program's layers as the probe sees them: which public callables
are timed into which row, and what the traced run reads off results.

Row names follow the module names of ``src/repro``; :mod:`e2ebench.metrics`
turns each row ``r`` of op slot ``k`` into the metric ``k.r_ms``.
"""

from __future__ import annotations

import importlib
import inspect

from e2ebench.probe import Probe, Target

#: self-time rows, in report order; with ``unattributed`` they add up to the op
ROWS = (
    "nn.dense",
    "nn.forward",
    "nn.backward",
    "nn.sparse_ops",
    "nn.optim",
    "nn.evaluate",
    "kernels.dispatch",
    "kernels.simulate",
    "kernels.reference",
    "gpusim.estimate_cost",
    "exec.spmm",
    "exec.sddmm",
    "exec.other",
    "sparse",
    "resilience.validate",
    "client.encode",
    "client.decode",
    "server.decode",
    "server.encode",
    "serve.admission",
)

#: modules whose every public function is charged to the ``sparse`` row
SPARSE_MODULES = ("repro.sparse.partition", "repro.sparse.convert", "repro.sparse.generators")
#: COOMatrix methods that build or reorder formats (also ``sparse``)
SPARSE_METHODS = ("sort_csr_order", "csr_order", "csr_arrays", "row_degrees", "to_csr")


def _kernel_result(probe: Probe, slot: str, args: tuple, result) -> None:
    cost = result.cost
    probe.add(slot, "kernels.calls", 1)
    probe.add(slot, "sim.dram_bytes", cost.dram_bytes)
    probe.add(slot, "sim.load_cycles", cost.kind_cycles.get("load", 0.0))
    probe.add(slot, "sim.cycles", sum(cost.kind_cycles.values()))


def _launch_width(probe: Probe, slot: str, args: tuple, result) -> None:
    probe.add(slot, "serve.launched_columns", args[2].shape[1])


def _public_functions(modname: str) -> list[str]:
    module = importlib.import_module(modname)
    return [
        name for name, value in vars(module).items()
        if inspect.isfunction(value) and value.__module__ == modname
        and not name.startswith("_")
    ]


def program_targets() -> list[Target]:
    """Every public callable the traced run times, by layer."""
    T = Target
    targets = [
        T("repro.nn.tensor", "matmul", "nn.dense", grad=True),
        T("repro.nn.tensor:Tensor", "backward", "nn.backward", scope="bwd"),
        T("repro.nn.modules:Module", "__call__", "nn.forward"),
        T("repro.nn.optim:Optimizer", "step", "nn.optim"),
        T("repro.nn.trainer:Trainer", "evaluate", "nn.evaluate", scope="eval"),
    ]
    targets += [
        T("repro.nn.sparse_ops", name, "nn.sparse_ops", grad=True)
        for name in _public_functions("repro.nn.sparse_ops")
    ]
    for base in ("SpMMKernel", "SDDMMKernel", "SpMVKernel"):
        owner = f"repro.kernels.base:{base}"
        targets += [
            T(owner, "__call__", "kernels.dispatch", hook=_kernel_result),
            T(owner, "execute", "kernels.simulate"),
        ]
    targets += [
        T("repro.kernels.base", "reference_spmm", "kernels.reference"),
        T("repro.kernels.base", "reference_sddmm", "kernels.reference"),
        T("repro.gpusim.cost", "estimate_cost", "gpusim.estimate_cost"),
        T("repro.exec.engine:ExecutionEngine", "spmm", "exec.spmm"),
        T("repro.exec.engine:ExecutionEngine", "sddmm", "exec.sddmm"),
        T("repro.exec.engine:ExecutionEngine", "spmv", "exec.other"),
        T("repro.exec.engine:ExecutionEngine", "gat_alpha", "exec.other"),
        T("repro.resilience.validation", "ensure_structure_validated", "resilience.validate"),
    ]
    for modname in SPARSE_MODULES:
        targets += [T(modname, name, "sparse") for name in _public_functions(modname)]
    targets += [T("repro.sparse.coo:COOMatrix", name, "sparse") for name in SPARSE_METHODS]
    targets += [
        T("repro.serve.protocol", name, "wire.encode")
        for name in ("encode_array", "array_header", "encode_frame",
                     "write_frame_nowait", "result_frame", "error_frame")
    ]
    targets += [
        T("repro.serve.protocol", name, "wire.decode")
        for name in ("decode_array", "decode_payload")
    ]
    targets += [
        T("repro.serve.service:InferenceService", "submit_nowait", "serve.admission"),
        T("repro.serve.client:ServeClient", "propagate", scope="client"),
        T("repro.serve.client:ServeClient", "predict", scope="client"),
    ]
    return targets


def plancache_snapshot() -> dict[str, float]:
    from repro.core.plancache import get_plan_cache

    cache = get_plan_cache()
    return {"core.plancache.hits": cache.hits, "core.plancache.misses": cache.misses}


def width_probe() -> Probe:
    """Counts the columns each fused propagate launch carries (no timing)."""
    return Probe([Target("repro.core.api", "spmm", hook=_launch_width)])
