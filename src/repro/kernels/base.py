"""Kernel interface shared by GNNOne and every baseline.

A *kernel* here is one simulated CUDA kernel: calling it computes the
exact numerical result with NumPy **and** a :class:`KernelTrace` of what
each simulated warp did, which the cost model prices into microseconds.

Signatures follow the paper's definitions (Section 2):

* ``spmm(A, edge_values, X) -> Y``  with ``Y = A_w @ X`` where ``A_w`` is
  the sparse matrix with per-NZE values ``edge_values``  (|V| x F out);
* ``sddmm(A, X, Y) -> W`` with ``W[e] = <X[row_e], Y[col_e]>``  (|E| out);
* ``spmv(A, edge_values, x) -> y``  (the Fig-12 study).

Every SpMM and SDDMM kernel also exposes :meth:`memory_bytes`, the
device footprint of its storage format(s) plus operands at an
*arbitrary* scale — the harness evaluates it at the paper-scale |V|/|E|
so the OOM cells in Figs 3/4/7 reproduce even though the compute runs
on scaled graphs.

A launch has two independent halves:

* the **plan** — ``execute(A, feature_length, device)`` records the
  trace, which the cost model prices.  It depends only on (topology,
  kernel config, feature length, device), never on operand values, so
  it receives no operand.  :meth:`_Kernel.simulate` memoizes it in the
  structural plan cache (:mod:`repro.core.plancache`): a warm launch
  replays the cached :class:`CostReport`/trace and skips Stage-1
  planning, scheduling, trace recording and ``estimate_cost`` entirely;
* the **numerics** — :meth:`_Kernel.compute`, the only half that reads
  the operands.

``kernel(A, *operands)`` validates the operands, then runs ``simulate``
and ``compute``.  A caller that needs only the price (the autotuner,
the figure experiments, the GAT score and softmax ops) calls
``kernel.simulate(A, feature_length)`` and computes nothing.

There is one numerics path.  GNNOne and every baseline take their
output from the base-class :meth:`_Kernel.compute`, which runs the
execution engine (:mod:`repro.exec`); a kernel's identity shows only in
its trace.  ``compute`` memoizes the engine output per read-only
operand set, so the kernels of one figure sweep share one output per
dataset.  :func:`reference_spmm` and :func:`reference_sddmm` are
independent scipy/einsum oracles for tests and checks; no kernel
returns them.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable

import numpy as np

from repro import obs
from repro.errors import FormatError
from repro.exec import get_engine
from repro.resilience.validation import ensure_structure_validated
from repro.gpusim.cost import CostReport, estimate_cost
from repro.gpusim.device import DeviceSpec, get_device
from repro.gpusim.trace import KernelTrace
from repro.sparse.coo import COOMatrix

if TYPE_CHECKING:
    from repro.core.plancache import CachedLaunch


def _plan_cache():
    # Imported lazily: repro.core.__init__ imports this module back.
    from repro.core import plancache

    return plancache


def cost_span_attrs(cost: CostReport) -> dict[str, float | int | str]:
    """The CostReport fields every kernel span carries."""
    return {
        "time_us": cost.time_us,
        "cycles": cost.cycles,
        "dram_bytes": cost.dram_bytes,
        "occupancy_warps_per_sm": cost.occupancy.active_warps_per_sm,
        "occupancy_ctas_per_sm": cost.occupancy.active_ctas_per_sm,
        "occupancy_limiter": cost.occupancy.limiter,
        "sm_imbalance": cost.sm_imbalance,
    }


#: per-kind span names, interned once (these sit on the warm hot path)
_KIND_SPAN_NAMES: dict[str, str] = {}


def _kind_span_name(kind: str) -> str:
    name = _KIND_SPAN_NAMES.get(kind)
    if name is None:
        name = _KIND_SPAN_NAMES[kind] = f"kernel.{kind}"
    return name


def _finish_kernel_span(sp, cost: CostReport, trace: KernelTrace) -> None:
    if obs.tracing_enabled():
        launch = trace.launch
        sp.set(**cost_span_attrs(cost))
        # Hardware-model internals: per-stage busy cycles (the Fig-11
        # breakdown), aggregate warp counters, and the launch shape —
        # the profiler reads these.
        sp.set(
            kind_cycles={k: float(v) for k, v in cost.kind_cycles.items()},
            counters={k: float(v) for k, v in cost.counters.items()},
            grid_ctas=launch.grid_ctas,
            threads_per_cta=launch.threads_per_cta,
            registers_per_thread=launch.registers_per_thread,
            shared_mem_per_cta=launch.shared_mem_per_cta,
        )
    sp.add_sim_us(cost.time_us)


@dataclass
class KernelResult:
    """Numerical output plus simulated execution report."""

    output: np.ndarray
    cost: CostReport
    trace: KernelTrace

    @property
    def time_us(self) -> float:
        return self.cost.time_us


def check_numeric(**operands: np.ndarray) -> None:
    """Reject operands that are not rectangular integer or float arrays.

    The launch casts every operand to float64, which would drop a
    complex value's imaginary part and parse strings, bools and objects
    as numbers.
    """
    for name, op in operands.items():
        try:
            dtype = np.asarray(op).dtype
        except ValueError as e:  # ragged nesting
            raise FormatError(f"{name} must be a rectangular array: {e}") from None
        if dtype.kind not in "iuf":
            raise FormatError(f"{name} must hold integers or floats, got dtype {dtype}")


def validate_spmm_inputs(A: COOMatrix, edge_values: np.ndarray, X: np.ndarray) -> None:
    check_numeric(edge_values=edge_values, X=X)
    edge_values = np.asarray(edge_values)
    X = np.asarray(X)
    if edge_values.shape != (A.nnz,):
        raise FormatError(f"edge_values must have shape ({A.nnz},), got {edge_values.shape}")
    if X.ndim != 2 or X.shape[0] != A.num_cols:
        raise FormatError(f"X must have shape ({A.num_cols}, F), got {X.shape}")


def validate_sddmm_inputs(A: COOMatrix, X: np.ndarray, Y: np.ndarray) -> None:
    check_numeric(X=X, Y=Y)
    X, Y = np.asarray(X), np.asarray(Y)
    if X.ndim != 2 or X.shape[0] != A.num_rows:
        raise FormatError(f"X must have shape ({A.num_rows}, F), got {X.shape}")
    if Y.ndim != 2 or Y.shape[0] != A.num_cols:
        raise FormatError(f"Y must have shape ({A.num_cols}, F), got {Y.shape}")
    if X.shape[1] != Y.shape[1]:
        raise FormatError(f"feature length mismatch: {X.shape[1]} vs {Y.shape[1]}")


def validate_spmv_inputs(A: COOMatrix, edge_values: np.ndarray, x: np.ndarray) -> None:
    check_numeric(edge_values=edge_values, x=x)
    if np.asarray(edge_values).shape != (A.nnz,):
        raise FormatError(f"edge_values must have shape ({A.nnz},)")
    if np.asarray(x).shape != (A.num_cols,):
        raise FormatError(f"x must have shape ({A.num_cols},)")


class _Kernel(abc.ABC):
    """Launch machinery, cache identity and numerics shared by every kernel.

    Subclasses implement :meth:`execute` (the trace) and
    :meth:`memory_bytes`, and a ``__call__`` that validates the operands
    and hands them to :meth:`_launch`.
    """

    name: str
    format: str
    kind: str

    def cache_token(self) -> Hashable:
        """Hashable identity of this kernel *and its configuration*.

        The display ``name`` is not enough on its own (GNNOne names omit
        ablation switches), so configurable kernels override this to
        include their full config.  The class qualname keeps subclasses
        that tweak behaviour without renaming from colliding.
        """
        return (type(self).__qualname__, self.name, self.format)

    @abc.abstractmethod
    def execute(self, A: COOMatrix, feature_length: int, device: DeviceSpec) -> KernelTrace:
        """Record this launch's trace; value-independent, so it takes no operand."""

    def simulate(
        self, A: COOMatrix, feature_length: int, *, device: DeviceSpec | str | None = None
    ) -> CachedLaunch:
        """The launch's plan-cache entry (cost + trace), simulated on a miss.

        A hit replays the cached plan; a miss runs :meth:`execute` and
        ``estimate_cost`` and stores the plan.  Either way the launch
        gets one ``kernel.<kind>`` span.
        """
        ensure_structure_validated(A)
        dev = get_device(device)
        pc = _plan_cache()
        kind = self.kind
        with obs.span(
            _kind_span_name(kind), kind=kind, kernel=self.name, format=self.format,
            rows=A.num_rows, nnz=A.nnz, f=int(feature_length),
        ) as sp:
            key = pc.plan_key(A.structure_token, self.cache_token(), kind, feature_length, dev)
            cache = pc.get_plan_cache()
            plan = cache.lookup(key)
            cached = plan is not None
            if not cached:
                trace = self.execute(A, feature_length, dev)
                t0 = time.perf_counter()
                cost = estimate_cost(trace, dev)
                sp.set(cost_wall_ms=(time.perf_counter() - t0) * 1e3)
                plan = pc.CachedLaunch(cost, trace)
                cache.store(key, plan)
            sp.set(cached=cached)
            _finish_kernel_span(sp, plan.cost, plan.trace)
        return plan

    def _launch(
        self, A: COOMatrix, device: DeviceSpec | str | None, operands: tuple,
        feature_length: int,
    ) -> KernelResult:
        """Simulate (or replay) the plan, then compute the output."""
        plan = self.simulate(A, feature_length, device=device)
        operands = tuple(np.asarray(op, dtype=np.float64) for op in operands)
        return KernelResult(self.compute(A, *operands), plan.cost, plan.trace)

    def compute(self, A: COOMatrix, *operands: np.ndarray) -> np.ndarray:
        """The launch's output: the engine's ``spmm``/``sddmm``/``spmv``.

        Every launch returns this, cold or warm, so a kernel's output
        does not depend on cache state and equals every other kernel's
        of the same kind bit for bit.
        """
        return _memoized_output(self.kind, A, operands, getattr(get_engine(), self.kind))


class SpMMKernel(_Kernel):
    """Base class for SpMM (``Y <- A X``) kernels."""

    name: str = "spmm-base"
    format: str = "coo"
    kind = "spmm"

    def __call__(
        self,
        A: COOMatrix,
        edge_values: np.ndarray,
        X: np.ndarray,
        *,
        device: DeviceSpec | str | None = None,
    ) -> KernelResult:
        validate_spmm_inputs(A, edge_values, X)
        return self._launch(A, device, (edge_values, X), np.shape(X)[1])

    @abc.abstractmethod
    def memory_bytes(self, num_vertices: int, num_edges: int, feature_length: int) -> int:
        """Device footprint (formats + operands + output) at the given scale."""


class SDDMMKernel(_Kernel):
    """Base class for SDDMM (``W <- A ⊙ (X Y^T)``) kernels."""

    name: str = "sddmm-base"
    format: str = "coo"
    kind = "sddmm"

    def __call__(
        self,
        A: COOMatrix,
        X: np.ndarray,
        Y: np.ndarray,
        *,
        device: DeviceSpec | str | None = None,
    ) -> KernelResult:
        validate_sddmm_inputs(A, X, Y)
        return self._launch(A, device, (X, Y), np.shape(X)[1])

    @abc.abstractmethod
    def memory_bytes(self, num_vertices: int, num_edges: int, feature_length: int) -> int:
        """Device footprint (formats + operands + output) at the given scale."""


class SpMVKernel(_Kernel):
    """Base class for SpMV (``y <- A x``) kernels (Fig-12 study)."""

    name: str = "spmv-base"
    format: str = "coo"
    kind = "spmv"

    def __call__(
        self,
        A: COOMatrix,
        edge_values: np.ndarray,
        x: np.ndarray,
        *,
        device: DeviceSpec | str | None = None,
    ) -> KernelResult:
        validate_spmv_inputs(A, edge_values, x)
        return self._launch(A, device, (edge_values, x), 1)


def _read_only(a: object) -> bool:
    """Can no one write ``a``'s values through numpy?

    True when ``a`` and every ``.base`` below it are read-only arrays
    and the last one owns its memory.  A read-only view of a writeable
    array is *not* read-only: its base can still change.
    """
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return a is None


def _memoized_output(
    kind: str, A: COOMatrix, operands: tuple, compute: Callable[..., np.ndarray]
) -> np.ndarray:
    """``compute(A, *operands)`` once per (topology, operand objects); a fresh copy per call.

    GNNOne and its baselines all compute through here, so a figure
    sweep, which launches every kernel of a kind on the same shared
    read-only operands, computes each output once.  Results are memoized
    in the plan cache's identity memo (cleared by ``clear_plan_cache``)
    only when every operand is read-only down its whole ``.base`` chain;
    anything writeable could change between calls and always recomputes.
    """
    if not all(_read_only(op) for op in operands):
        return compute(A, *operands)
    cache = _plan_cache().get_plan_cache()
    key = (kind, A.structure_token, *map(id, operands))
    hit = cache.memo_lookup(key, operands)
    if hit is not None:
        return hit.copy()
    out = compute(A, *operands)
    out.setflags(write=False)
    cache.memo_store(key, operands, out)
    return out.copy()


def reference_spmm(A: COOMatrix, edge_values: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Ground-truth SpMM via scipy: the independent oracle for tests and checks."""
    return A.to_scipy(np.asarray(edge_values, dtype=np.float64)).tocsr() @ np.asarray(X)


def reference_sddmm(A: COOMatrix, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Ground-truth SDDMM: per-edge dot products by a row-gathered einsum."""
    X, Y = np.asarray(X), np.asarray(Y)
    return np.einsum("ef,ef->e", X[A.rows], Y[A.cols])
