"""Trace analysis: per-identity aggregation and subsystem summaries.

Two runs of the same sweep are comparable point-by-point because every
instrumented span carries an *identity*: its name plus the stable
attributes (kernel, dataset, feature length, ...) that parameterize the
work it measured.  :func:`summarize` folds a trace into one row per
identity; :mod:`repro.obs.regress` joins a trace to a baseline on the
same identity and flags every key whose simulated time regressed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.obs.spans import JsonDict

#: attributes that identify *which* work a span measured (stable across
#: runs), as opposed to measurement outputs like time_us/dram_bytes.
#: ``cached`` is deliberately excluded: a warm replay measures the same
#: work as the cold simulation, and runs with different cache states
#: must stay comparable point-by-point.
IDENTITY_ATTRS = ("kind", "kernel", "backend", "dataset", "f", "dim", "experiment", "model")


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


def plan_cache_summary(records: Iterable[JsonDict]) -> tuple[int, int]:
    """(warm, total) kernel launches in a trace, from ``cached`` attrs."""
    warm = total = 0
    for rec in records:
        if rec.get("type") != "span":
            continue
        cached = rec.get("attrs", {}).get("cached")
        if cached is None:
            continue
        total += 1
        warm += bool(cached)
    return warm, total


def span_key(record: JsonDict) -> str:
    """Stable identity of a span for cross-run comparison."""
    attrs = record.get("attrs", {})
    parts = [str(record.get("name", "?"))]
    parts += [f"{k}={attrs[k]}" for k in IDENTITY_ATTRS if attrs.get(k) is not None]
    return " ".join(parts)


@dataclass
class KeySummary:
    """Aggregate of every span sharing one identity key."""

    key: str
    count: int = 0
    sim_us: float = 0.0
    wall_ms: float = 0.0
    errors: int = 0

    def fold(self, record: JsonDict) -> None:
        self.count += 1
        sim = record.get("sim_us")
        if isinstance(sim, (int, float)):
            self.sim_us += sim
        wall = record.get("wall_ms")
        if isinstance(wall, (int, float)):
            self.wall_ms += wall
        if record.get("status") != "ok":
            self.errors += 1


def summarize(records: Iterable[JsonDict]) -> list[KeySummary]:
    """One row per span identity, heaviest simulated time first."""
    table: dict[str, KeySummary] = {}
    for rec in records:
        if rec.get("type") != "span":
            continue
        key = span_key(rec)
        if key not in table:
            table[key] = KeySummary(key)
        table[key].fold(rec)
    return sorted(table.values(), key=lambda s: (-s.sim_us, -s.wall_ms, s.key))


def format_summary(rows: list[KeySummary]) -> str:
    lines = [f"{'span':<64} {'count':>6} {'sim us':>14} {'wall ms':>10} {'err':>4}"]
    lines.append("-" * len(lines[0]))
    for row in rows:
        lines.append(
            f"{row.key:<64} {row.count:>6} {row.sim_us:>14,.1f} "
            f"{row.wall_ms:>10.2f} {row.errors:>4}"
        )
    total_sim = sum(r.sim_us for r in rows)
    lines.append(f"{len(rows)} span identities, {total_sim:,.1f} total simulated us")
    return "\n".join(lines)


def format_plan_cache_line(warm: int, total: int) -> str:
    """Human-readable plan-cache hit-rate footer for ``summary``."""
    if total == 0:
        return "plan cache: no kernel launches in trace"
    return (
        f"plan cache: {warm}/{total} kernel launches replayed from cache "
        f"({warm / total:.0%} hit rate)"
    )


#: resilience event names counted by :func:`resilience_summary`, in the
#: order the summary line reports them.
RESILIENCE_EVENTS = (
    "resilience.fault_injected",
    "resilience.plan_invalidated",
    "resilience.checkpoint_save",
    "resilience.checkpoint_restore",
)


def resilience_summary(records: Iterable[JsonDict]) -> dict[str, int]:
    """Count fault/recovery events in a trace, by event name.

    Every recovery path (:mod:`repro.resilience`) emits an obs event;
    folding them out of the trace makes a chaos run auditable from the
    same file the regression diffs read.
    """
    counts = dict.fromkeys(RESILIENCE_EVENTS, 0)
    for rec in records:
        name = rec.get("name")
        if rec.get("type") == "event" and name in counts:
            counts[name] += 1
    return counts


def format_resilience_line(counts: dict[str, int]) -> str:
    """Human-readable fault/recovery footer for ``summary``."""
    if not any(counts.values()):
        return "resilience: no faults injected, no recoveries in trace"
    parts = [
        f"{counts['resilience.fault_injected']} fault(s) injected",
        f"{counts['resilience.plan_invalidated']} plan invalidation(s)",
        f"{counts['resilience.checkpoint_restore']} checkpoint restore(s)",
    ]
    if counts["resilience.checkpoint_save"]:
        parts.append(f"{counts['resilience.checkpoint_save']} checkpoint save(s)")
    return "resilience: " + ", ".join(parts)


def serve_summary(records: Iterable[JsonDict]) -> dict[str, float | int]:
    """Fold the inference service's spans/events out of a trace.

    ``serve.request`` spans carry per-request wall latency (emitted
    retroactively via :func:`repro.obs.spans.emit_span` since a request
    crosses tasks); ``serve.batch`` spans carry the fused-launch
    occupancy; ``serve.rpc`` spans are the transport edge;
    ``serve.shed`` / ``serve.degraded`` / ``serve.deadline_shed`` /
    ``serve.breaker`` / ``serve.client_retry`` events count admission
    rejections, unbatched fallbacks, pre-launch deadline sheds, breaker
    transitions, and client transport retries.
    """
    latencies: list[float] = []
    occupancies: list[float] = []
    shed = degraded = timeouts = 0
    deadline_shed = breaker_transitions = client_retries = rpcs = 0
    for rec in records:
        name = rec.get("name", "")
        if rec.get("type") == "span":
            if name == "serve.request":
                wall = rec.get("wall_ms")
                if isinstance(wall, (int, float)):
                    latencies.append(float(wall))
            elif name == "serve.batch":
                occ = rec.get("attrs", {}).get("occupancy")
                if isinstance(occ, (int, float)):
                    occupancies.append(float(occ))
            elif name == "serve.rpc":
                rpcs += 1
        elif rec.get("type") == "event":
            if name == "serve.shed":
                shed += 1
            elif name == "serve.degraded":
                degraded += 1
            elif name == "serve.timeout":
                timeouts += 1
            elif name == "serve.deadline_shed":
                deadline_shed += 1
            elif name == "serve.breaker":
                breaker_transitions += 1
            elif name == "serve.client_retry":
                client_retries += 1
    return {
        "requests": len(latencies),
        "shed": shed,
        "timeouts": timeouts,
        "degraded": degraded,
        "deadline_shed": deadline_shed,
        "breaker_transitions": breaker_transitions,
        "client_retries": client_retries,
        "rpcs": rpcs,
        "batches": len(occupancies),
        "mean_occupancy": (sum(occupancies) / len(occupancies)) if occupancies else 0.0,
        "p50_ms": percentile(latencies, 50),
        "p99_ms": percentile(latencies, 99),
    }


def format_serve_line(stats: dict[str, float | int]) -> str:
    """Human-readable serving footer for ``summary``."""
    if not stats.get("requests") and not stats.get("shed"):
        return "serve: no inference-service activity in trace"
    line = (
        f"serve: {stats['requests']} request(s) served, {stats['shed']} shed, "
        f"{stats['batches']} batch(es) at {stats['mean_occupancy']:.1f} mean occupancy, "
        f"latency p50 {stats['p50_ms']:.2f} ms / p99 {stats['p99_ms']:.2f} ms"
    )
    extras = []
    if stats.get("timeouts"):
        extras.append(f"{stats['timeouts']} timeout(s)")
    if stats.get("degraded"):
        extras.append(f"{stats['degraded']} degrade(s)-to-unbatched")
    if stats.get("deadline_shed"):
        extras.append(f"{stats['deadline_shed']} deadline-shed")
    if stats.get("breaker_transitions"):
        extras.append(f"{stats['breaker_transitions']} breaker transition(s)")
    if stats.get("rpcs"):
        extras.append(f"{stats['rpcs']} rpc(s)")
    if stats.get("client_retries"):
        extras.append(f"{stats['client_retries']} client retry(ies)")
    if extras:
        line += ", " + ", ".join(extras)
    return line
