"""Unified observability: span tracing, exporters, run gating.

The paper's whole argument is quantitative — which phase of which
kernel moved how many bytes in how many simulated microseconds — and
every subsystem here produces those numbers.  ``repro.obs`` is the one
place they flow through:

* :func:`span` — nestable contextvar-scoped tracer; kernels, the
  GNNOne stage pipeline, the trainer and the benchmark harness all emit
  spans carrying wall time, simulated time, and CostReport fields.
* :func:`trace_to` / :func:`capture` / :func:`render_tree` — JSONL
  stream, in-memory and console-tree exporters.
* ``python -m repro.obs`` — summarize a trace, render a deep
  per-kernel profile (``profile``) or per-worker timeline
  (``timeline``), and snapshot/gate perf baselines (``baseline`` /
  ``regress``, the one way to compare two runs).

``REPRO_OBS=off`` kills the whole layer: spans and events
short-circuit on one cached bool.

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
    percentile,
    plan_cache_summary,
    resilience_summary,
    serve_summary,
    span_key,
    summarize,
)
from repro.obs.export import (
    JsonlWriter,
    read_trace,
    read_trace_lenient,
    render_tree,
    trace_to,
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
    "percentile",
    "plan_cache_summary",
    "resilience_summary",
    "serve_summary",
    "RESILIENCE_EVENTS",
    "span_key",
    "summarize",
    "JsonlWriter",
    "read_trace",
    "read_trace_lenient",
    "render_tree",
    "trace_to",
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
