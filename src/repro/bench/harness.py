"""Experiment registry and shared sweep machinery.

Every table/figure of the paper has one experiment module under
``repro.bench.experiments``; this module provides their common
ingredients — the kernel sweep with paper-scale OOM accounting — and a
registry so ``run_experiment("fig03")`` (or the CLI:
``python -m repro.bench fig03``) regenerates any of them.

Every sweep point emits an :mod:`repro.obs` span (``bench.spmm`` /
``bench.sddmm``) keyed by kernel × dataset × feature length, carrying
the simulated time or the OOM/launch-failure outcome — the per-point
record ``python -m repro.obs regress`` gates against a baseline run.
Figure experiments run their (dataset, dim) grids through
:func:`sweep_points`, which records a failing point as an error row
instead of aborting the figure.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

from repro import obs
from repro.core import plancache
from repro.errors import BenchmarkError, KernelLaunchError
from repro.gpusim.device import DeviceSpec, get_device
from repro.kernels.registry import sddmm_kernel, spmm_kernel
from repro.nn.memory import USABLE_FRACTION
from repro.bench.report import ExperimentResult
from repro.sparse.coo import COOMatrix
from repro.sparse.datasets import DatasetSpec, get_spec, load_dataset

#: Feature lengths the paper sweeps in Figs 3-4.
FEATURE_LENGTHS = (6, 16, 32, 64)

_REGISTRY: dict[str, Callable[..., ExperimentResult]] = {}


def experiment(exp_id: str):
    """Decorator registering an experiment entry point."""

    def wrap(fn: Callable[..., ExperimentResult]):
        _REGISTRY[exp_id] = fn
        return fn

    return wrap


def run_experiment(exp_id: str, *, quick: bool = False) -> ExperimentResult:
    try:
        fn = _REGISTRY[exp_id]
    except KeyError:
        raise BenchmarkError(
            f"unknown experiment {exp_id!r}; known: {sorted(_REGISTRY)}"
        ) from None
    cache = plancache.get_plan_cache()
    hits0, misses0 = cache.hits, cache.misses
    with obs.span("bench.experiment", experiment=exp_id, quick=quick) as sp:
        result = fn(quick=quick)
        # A figure sweep revisits each launch structure once per kernel
        # config; the hit share tells how much simulation was replayed.
        hits, misses = cache.hits - hits0, cache.misses - misses0
        sp.set(rows=len(result.rows), plancache_hits=hits, plancache_misses=misses)
    return result


def experiment_ids() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def sweep_points(
    fn: Callable,
    points: Iterable,
    *,
    label: str = "bench.sweep",
    error_row: Callable[[object, Exception], object] | None = None,
) -> list:
    """Apply ``fn`` to every point in order, under one ``label`` span.

    With ``error_row``, a point that raises no longer aborts the sweep:
    the exception is recorded (a ``bench.point_error`` obs event) and
    ``error_row(point, exc)`` supplies the row that takes its place, so
    the rest of the grid still runs and the failure is visible in the
    figure instead of killing it.  Without ``error_row`` the exception propagates as
    before.
    """
    points = list(points)
    rows = []
    with obs.span(label, points=len(points)):
        for point in points:
            try:
                rows.append(fn(point))
            except Exception as e:  # noqa: BLE001 - recorded, surfaced in the row
                if error_row is None:
                    raise
                obs.event("bench.point_error", label=label, point=repr(point),
                          error=f"{type(e).__name__}: {e}")
                rows.append(error_row(point, e))
    return rows


def kernel_fits(kernel, spec: DatasetSpec, feature_length: int, device: DeviceSpec) -> bool:
    """Does the kernel's footprint fit at *paper scale*?"""
    needed = kernel.memory_bytes(spec.paper_vertices, spec.paper_edges, feature_length)
    return needed <= USABLE_FRACTION * device.memory_bytes


@lru_cache(maxsize=8)
def sweep_operands(
    dataset_key: str, feature_length: int, seed: int = 0
) -> tuple[COOMatrix, np.ndarray, np.ndarray, np.ndarray]:
    """Memoized ``(A, edge_values, X_cols, X_rows)`` for one sweep point.

    A figure sweep revisits the same (dataset, feature-length) point
    once per kernel; without this cache each visit regenerated the
    operand arrays (and, before :func:`load_dataset` was memoized,
    rebuilt the COO) dozens of times per sweep.  Arrays are returned
    read-only since they are shared across kernel invocations.
    """
    A = load_dataset(dataset_key).coo
    rng = np.random.default_rng(seed)
    edge_values = rng.standard_normal(A.nnz)
    X_cols = rng.standard_normal((A.num_cols, feature_length))
    X_rows = rng.standard_normal((A.num_rows, feature_length))
    for arr in (edge_values, X_cols, X_rows):
        arr.setflags(write=False)
    return A, edge_values, X_cols, X_rows


def time_kernel(
    kind: str, name: str, dataset_key: str, feature_length: int, *, device=None, seed: int = 0
) -> float | None:
    """Simulated microseconds of one ``kind`` ("spmm" or "sddmm") sweep
    point, or None for OOM/launch failure."""
    dev = get_device(device)
    spec = get_spec(dataset_key)
    with obs.span(f"bench.{kind}", kind=kind, kernel=name, dataset=spec.key,
                  f=feature_length) as sp:
        kernel = spmm_kernel(name) if kind == "spmm" else sddmm_kernel(name)
        if not kernel_fits(kernel, spec, feature_length, dev):
            sp.set(outcome="oom")
            return None
        A, vals, X_cols, X_rows = sweep_operands(spec.key, feature_length, seed)
        operands = (vals, X_cols) if kind == "spmm" else (X_rows, X_cols)
        try:
            result = kernel(A, *operands, device=dev)
        except KernelLaunchError:
            sp.set(outcome="launch-error")
            return None
        time_us = result.time_us
        sp.set(outcome="ok").add_sim_us(time_us)
        return time_us


# Import experiment modules for their registration side effects.
def _register_all() -> None:
    from repro.bench import experiments  # noqa: F401


_register_all()
