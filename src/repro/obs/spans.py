"""Contextvar-based span tracer: the substrate every subsystem reports to.

A *span* is one timed region of work — a kernel launch, a training
epoch, a benchmark sweep point — carrying wall time, attached
*simulated* device time (the quantity the paper's figures plot), and an
open dictionary of attributes (kernel name, dataset key, feature
length, :class:`~repro.gpusim.cost.CostReport` fields, ...).  Spans
nest: entering ``span()`` inside another span records the parent link,
so a trace of ``python -m repro.bench fig03`` reconstructs the full
experiment → sweep point → kernel → stage tree.

Tracing is **off by default and free when off**: ``span()`` returns a
shared null handle without allocating when no sink is installed, so the
instrumented hot paths (every kernel ``__call__``, every ``Module``
forward) pay one truthiness check.  Install a sink with
:func:`add_sink`, :func:`repro.obs.export.trace_to` (JSONL file), or
:func:`capture` (in-memory list, for tests).

``REPRO_OBS=off`` is the process-wide kill switch: spans and events
stay null even with sinks installed, so a latency-critical run pays
only the one boolean check per instrumentation point
(``scripts/obs_overhead.py`` pins the overhead under 2% on a warm
fig04 sweep).
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Iterator, Protocol

from repro import settings

JsonDict = dict[str, Any]

#: process-wide monotonically increasing span/event ids
_ids = itertools.count(1)

#: installed sinks; tracing is enabled iff this is non-empty
_sinks: list["TraceSink"] = []

#: cached kill-switch state — the hot paths check this one module-level
#: value.  ``None`` until first resolved from ``REPRO_OBS``
#: (:mod:`repro.settings`): at the first sink or :func:`obs_enabled`
#: call; re-read only via :func:`set_obs_enabled`.
_enabled: bool | None = None


def obs_enabled() -> bool:
    """Is the observability layer active (``REPRO_OBS`` kill switch)?"""
    if _enabled is None:
        set_obs_enabled(None)
    return _enabled


def set_obs_enabled(enabled: bool | None) -> None:
    """Force observability on/off; ``None`` follows the ``REPRO_OBS`` setting."""
    global _enabled
    _enabled = settings.get().obs if enabled is None else bool(enabled)

_stack: contextvars.ContextVar[tuple["Span", ...]] = contextvars.ContextVar(
    "repro_obs_span_stack", default=()
)


class TraceSink(Protocol):
    """Anything that accepts finished span / event records."""

    def record(self, record: JsonDict) -> None: ...


@dataclass
class Span:
    """One timed, attributed region of work (mutable while open)."""

    name: str
    span_id: int
    parent_id: int | None
    #: wall-clock epoch seconds at enter (for cross-run alignment)
    start_s: float
    attrs: JsonDict = field(default_factory=dict)
    wall_ms: float = 0.0
    #: simulated device microseconds attributed to this span, if any
    sim_us: float | None = None
    status: str = "ok"
    _t0: float = field(default=0.0, repr=False)

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes (chained: ``sp.set(kernel=...).set(f=...)``)."""
        self.attrs.update(attrs)
        return self

    def add_sim_us(self, us: float) -> "Span":
        """Accumulate simulated microseconds onto this span."""
        self.sim_us = (self.sim_us or 0.0) + float(us)
        return self

    def to_dict(self) -> JsonDict:
        return {
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "wall_ms": self.wall_ms,
            "sim_us": self.sim_us,
            "status": self.status,
            "attrs": self.attrs,
        }


class _NullSpan:
    """No-op handle returned when tracing is disabled."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def add_sim_us(self, us: float) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


def tracing_enabled() -> bool:
    return bool(_sinks) and _enabled


def current_span() -> Span | None:
    stack = _stack.get()
    return stack[-1] if stack else None


def reset_context_after_fork() -> None:
    """Clear the inherited span stack in a forked child.

    A fork taken mid-span would otherwise parent every span the child
    opens under a span object whose ``__exit__`` runs only in the
    parent.  Registered by :mod:`repro.exec.forksafe`.
    """
    _stack.set(())


class span:
    """Context manager opening a nested span; no-op when tracing is off.

    Usage::

        with obs.span("spmm", dataset="G14", f=32) as sp:
            result = kernel(...)
            sp.set(dram_bytes=result.cost.dram_bytes)
            sp.add_sim_us(result.cost.time_us)
    """

    __slots__ = ("name", "attrs", "_span", "_token")

    def __init__(self, name: str, **attrs: Any):
        self.name = name
        self.attrs = attrs
        self._span: Span | None = None
        self._token = None

    def __enter__(self) -> Span | _NullSpan:
        if not _sinks or not _enabled:
            return NULL_SPAN
        parent = current_span()
        sp = Span(
            name=self.name,
            span_id=next(_ids),
            parent_id=parent.span_id if parent else None,
            start_s=time.time(),
            attrs=dict(self.attrs),
        )
        sp._t0 = time.perf_counter()
        self._token = _stack.set(_stack.get() + (sp,))
        self._span = sp
        return sp

    def __exit__(self, exc_type, exc, tb) -> bool:
        sp = self._span
        if sp is None:  # tracing was off at enter
            return False
        self._span = None
        _stack.reset(self._token)
        sp.wall_ms = (time.perf_counter() - sp._t0) * 1e3
        if exc_type is not None:
            sp.status = "error"
            sp.attrs.setdefault("error", exc_type.__name__)
        _emit(sp.to_dict())
        return False


def emit_span(
    name: str,
    *,
    start_s: float,
    wall_ms: float,
    sim_us: float | None = None,
    status: str = "ok",
    **attrs: Any,
) -> None:
    """Emit a pre-timed span record directly, without nesting context.

    The ``span()`` context manager assumes the timed region opens and
    closes in one task; async request lifecycles don't — a serve
    request is admitted in one task, batched by another, and resolved
    back in the first, so no single ``with`` block can bracket it.
    Callers time such regions themselves and report them here
    retroactively.  Parented under the current span of the *emitting*
    task (usually none), so these render as top-level lanes in the
    timeline rather than mis-nesting under an unrelated batch span.
    """
    if not _sinks or not _enabled:
        return
    parent = current_span()
    _emit(
        {
            "type": "span",
            "name": name,
            "span_id": next(_ids),
            "parent_id": parent.span_id if parent else None,
            "start_s": float(start_s),
            "wall_ms": float(wall_ms),
            "sim_us": sim_us,
            "status": status,
            "attrs": dict(attrs),
        }
    )


def event(name: str, **attrs: Any) -> None:
    """Record an instantaneous event under the current span (if tracing)."""
    if not _sinks or not _enabled:
        return
    parent = current_span()
    _emit(
        {
            "type": "event",
            "name": name,
            "span_id": next(_ids),
            "parent_id": parent.span_id if parent else None,
            "start_s": time.time(),
            "attrs": dict(attrs),
        }
    )


def _emit(record: JsonDict) -> None:
    for sink in list(_sinks):
        sink.record(record)


def add_sink(sink: TraceSink) -> None:
    obs_enabled()  # resolve the kill switch before any span can check it
    _sinks.append(sink)


def remove_sink(sink: TraceSink) -> None:
    with contextlib.suppress(ValueError):
        _sinks.remove(sink)


class _ListSink:
    def __init__(self, records: list[JsonDict]):
        self.records = records

    def record(self, record: JsonDict) -> None:
        self.records.append(record)


@contextlib.contextmanager
def capture() -> Iterator[list[JsonDict]]:
    """Collect records in-memory for the enclosed block (tests, examples)."""
    records: list[JsonDict] = []
    sink = _ListSink(records)
    add_sink(sink)
    try:
        yield records
    finally:
        remove_sink(sink)
