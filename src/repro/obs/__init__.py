"""Unified observability: span tracing, metrics, exporters, run gating.

The paper's whole argument is quantitative — which phase of which
kernel moved how many bytes in how many simulated microseconds — and
every subsystem here produces those numbers.  ``repro.obs`` is the one
place they flow through:

* :func:`span` — nestable contextvar-scoped tracer; kernels, the
  GNNOne stage pipeline, the trainer and the benchmark harness all emit
  spans carrying wall time, simulated time, and CostReport fields.
* :func:`get_metrics` — process-global counters / gauges / histograms.
* :func:`trace_to` / :func:`capture` / :func:`render_tree` /
  :func:`write_metrics_json` — JSONL stream, in-memory, console tree,
  and flat snapshot exporters.
* ``python -m repro.obs`` — summarize a trace, render a deep
  per-kernel profile (``profile``) or per-worker timeline
  (``timeline``), export the learned-cost-model dataset (``dataset``),
  and snapshot/gate perf baselines (``baseline`` / ``regress``, the one
  way to compare two runs).

``REPRO_OBS=off`` kills the whole layer: spans short-circuit on one
cached bool and :func:`get_metrics` returns shared no-op instruments.

Tracing is off (and free) until a sink is installed::

    from repro import obs
    with obs.trace_to("run.jsonl"):
        core.spmm(A, w, X)                      # spans stream to the file
    records = obs.read_trace("run.jsonl")
    print(obs.render_tree(records))
"""

from repro.obs.analysis import (
    RESILIENCE_EVENTS,
    KeySummary,
    format_plan_cache_line,
    format_resilience_line,
    format_serve_line,
    format_summary,
    format_tune_line,
    plan_cache_summary,
    resilience_summary,
    serve_summary,
    span_key,
    summarize,
    tune_summary,
)
from repro.obs.dataset import (
    RECORD_SCHEMA,
    export_dataset,
    record_from_span,
    records_from_trace,
    split_fraction,
    split_key,
    split_side,
    validate_record,
)
from repro.obs.export import (
    JsonlWriter,
    read_trace,
    read_trace_lenient,
    render_tree,
    trace_to,
    write_metrics_json,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
    reset_metrics,
)
from repro.obs.profile import (
    ProfileRow,
    format_profile_report,
    format_timeline,
    profile_trace,
    timeline_lanes,
)
from repro.obs.regress import (
    RegressReport,
    baseline_from_traces,
    compare_to_baseline,
    format_regress_report,
    load_baseline,
    save_baseline,
)
from repro.obs.spans import (
    NULL_SPAN,
    Span,
    add_sink,
    capture,
    current_span,
    emit_span,
    event,
    obs_enabled,
    remove_sink,
    set_obs_enabled,
    span,
    tracing_enabled,
)

__all__ = [
    "KeySummary",
    "format_plan_cache_line",
    "format_resilience_line",
    "format_serve_line",
    "format_summary",
    "format_tune_line",
    "plan_cache_summary",
    "resilience_summary",
    "serve_summary",
    "tune_summary",
    "RESILIENCE_EVENTS",
    "span_key",
    "summarize",
    "JsonlWriter",
    "read_trace",
    "read_trace_lenient",
    "render_tree",
    "trace_to",
    "write_metrics_json",
    "RECORD_SCHEMA",
    "export_dataset",
    "record_from_span",
    "records_from_trace",
    "split_fraction",
    "split_key",
    "split_side",
    "validate_record",
    "ProfileRow",
    "format_profile_report",
    "format_timeline",
    "profile_trace",
    "timeline_lanes",
    "RegressReport",
    "baseline_from_traces",
    "compare_to_baseline",
    "format_regress_report",
    "load_baseline",
    "save_baseline",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "reset_metrics",
    "NULL_SPAN",
    "Span",
    "add_sink",
    "capture",
    "current_span",
    "emit_span",
    "event",
    "obs_enabled",
    "remove_sink",
    "set_obs_enabled",
    "span",
    "tracing_enabled",
]
