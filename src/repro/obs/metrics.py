"""Metrics registry: counters, gauges, and histograms with percentiles.

Spans (:mod:`repro.obs.spans`) answer "what happened, in what order";
metrics answer "how much, in aggregate".  The registry is a plain
process-local object — instrumented code records into the global
default registry (:func:`get_metrics`), tests build their own — and
:meth:`MetricsRegistry.snapshot` produces the flat JSON document the
``metrics.json`` exporter writes.

Histograms keep exact samples (benchmark sweeps record thousands of
points, not millions) and report count/mean/p50/p95/max, the summary
shape the paper's per-kernel breakdown tables use.

With ``REPRO_OBS=off`` (see :mod:`repro.obs.spans`),
:func:`get_metrics` hands back a shared null registry whose
instruments are all no-ops, so instrumented hot paths skip the dict
probes and list appends entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.obs import spans as _spans


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated percentile of ``values``, ``q`` in [0, 100].

    ``0.0`` for no values.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


@dataclass
class Counter:
    """Monotonically increasing count."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        self.value += amount


@dataclass
class Gauge:
    """Last-write-wins instantaneous value."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


@dataclass
class Histogram:
    """Exact-sample distribution with percentile summaries."""

    name: str
    samples: list[float] = field(default_factory=list)

    def observe(self, value: float) -> None:
        self.samples.append(float(value))

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        return math.fsum(self.samples)

    @property
    def mean(self) -> float:
        return self.total / len(self.samples) if self.samples else 0.0

    @property
    def max(self) -> float:
        return max(self.samples) if self.samples else 0.0

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile, ``q`` in [0, 100]."""
        return percentile(self.samples, q)

    def summary(self) -> dict[str, float]:
        return {
            "count": float(self.count),
            "total": self.total,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "max": self.max,
        }


class MetricsRegistry:
    """Named counters / gauges / histograms, lazily created on first use."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self._gauges:
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def histogram(self, name: str) -> Histogram:
        if name not in self._histograms:
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    def snapshot(self) -> dict[str, Any]:
        """Flat JSON-ready document (the ``metrics.json`` payload)."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {n: h.summary() for n, h in sorted(self._histograms.items())},
        }

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


class _NullInstrument:
    """Shared no-op counter/gauge/histogram for the kill-switch path."""

    __slots__ = ()
    name = "null"
    value = 0.0
    samples: list[float] = []

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class _NullMetricsRegistry(MetricsRegistry):
    """Registry whose instruments discard everything (``REPRO_OBS=off``)."""

    def counter(self, name: str):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def gauge(self, name: str):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def histogram(self, name: str):  # type: ignore[override]
        return _NULL_INSTRUMENT


_default = MetricsRegistry()
_null = _NullMetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-global registry instrumented code records into.

    Returns a shared no-op registry while the ``REPRO_OBS`` kill switch
    is off, so callers never need their own enabled check.
    """
    enabled = _spans._enabled
    if enabled is None:
        enabled = _spans.obs_enabled()
    return _default if enabled else _null


def reset_metrics() -> None:
    _default.reset()
