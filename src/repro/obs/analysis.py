"""Trace analysis: one fold of a trace into per-identity rows.

Two runs of the same sweep are comparable point-by-point because every
instrumented span carries an *identity*: its name plus the stable
attributes (kernel, dataset, feature length, ...) that parameterize the
work it measured.  :func:`fold_trace` is the one place a trace is
grouped: a single pass builds one :class:`IdentityRow` per identity,
plus event counts by name, and every view is formatting over that
table — ``summary`` and its plan-cache / resilience / serve footers
here, the per-kernel ``profile`` (:mod:`repro.obs.profile`) and the
``baseline`` / ``regress`` gate (:mod:`repro.obs.regress`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from repro.obs.spans import JsonDict

#: attributes that identify *which* work a span measured (stable across
#: runs), as opposed to measurement outputs like time_us/dram_bytes.
#: ``cached`` is deliberately excluded: a warm replay measures the same
#: work as the cold simulation, and runs with different cache states
#: must stay comparable point-by-point.
IDENTITY_ATTRS = ("kind", "kernel", "backend", "dataset", "f", "dim", "experiment", "model")

#: the cost-model phase kinds, in pipeline order (see repro.gpusim.trace)
STAGE_KINDS = ("load", "compute", "reduce", "store")

#: planning-stage spans nested under a kernel launch (cold launches only)
PLAN_STAGE_NAMES = ("gnnone.stage1", "gnnone.schedule", "gnnone.stage2")


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


def span_key(record: JsonDict) -> str:
    """Stable identity of a span for cross-run comparison."""
    attrs = record.get("attrs", {})
    parts = [str(record.get("name", "?"))]
    parts += [f"{k}={attrs[k]}" for k in IDENTITY_ATTRS if attrs.get(k) is not None]
    return " ".join(parts)


def _is_num(value: object) -> bool:
    return isinstance(value, (int, float))


@dataclass
class IdentityRow:
    """Every span sharing one identity, folded into what the views read."""

    key: str
    name: str
    count: int = 0
    errors: int = 0
    sim_us: float = 0.0
    wall_ms: float = 0.0
    #: every numeric ``wall_ms`` (the serve latency percentiles)
    walls: list[float] = field(default_factory=list)
    #: numeric ``sim_us`` of the status-ok spans (the baseline median)
    ok_sims: list[float] = field(default_factory=list)
    #: numeric ``occupancy`` attrs (requests per fused serve batch)
    occupancies: list[float] = field(default_factory=list)
    # Kernel launches: the spans carrying a ``cached`` attr.  Dispatch
    # and failed launches share a launch's identity but not these.
    launches: int = 0
    warm: int = 0
    launch_wall_ms: float = 0.0
    #: wall time of estimate_cost() on cold launches (plan-cache target)
    cost_wall_ms: float = 0.0
    #: planning-stage wall time charged through parent links, per stage
    stage_wall_ms: dict[str, float] = field(default_factory=dict)
    dram_bytes: float = 0.0
    #: cost-model busy cycles per phase kind, summed over launches
    kind_cycles: dict[str, float] = field(default_factory=dict)
    #: aggregate warp counters (load_instrs, sectors, barriers, ...)
    counters: dict[str, float] = field(default_factory=dict)
    occupancy_warps: float = 0.0
    sm_imbalance_max: float = 0.0

    def add(self, rec: JsonDict) -> None:
        attrs = rec.get("attrs", {})
        sim, wall = rec.get("sim_us"), rec.get("wall_ms")
        self.count += 1
        if rec.get("status") != "ok":
            self.errors += 1
        elif _is_num(sim):
            self.ok_sims.append(float(sim))
        if _is_num(sim):
            self.sim_us += sim
        if _is_num(wall):
            self.wall_ms += wall
            self.walls.append(float(wall))
        if _is_num(attrs.get("occupancy")):
            self.occupancies.append(float(attrs["occupancy"]))
        cached = attrs.get("cached")
        if cached is None:
            return
        self.launches += 1
        self.warm += bool(cached)
        if _is_num(wall):
            self.launch_wall_ms += wall
        if _is_num(attrs.get("cost_wall_ms")):
            self.cost_wall_ms += attrs["cost_wall_ms"]
        if _is_num(attrs.get("dram_bytes")):
            self.dram_bytes += attrs["dram_bytes"]
        for kind, cycles in (attrs.get("kind_cycles") or {}).items():
            self.kind_cycles[kind] = self.kind_cycles.get(kind, 0.0) + float(cycles)
        for name, value in (attrs.get("counters") or {}).items():
            self.counters[name] = self.counters.get(name, 0.0) + float(value)
        if _is_num(attrs.get("occupancy_warps_per_sm")):
            self.occupancy_warps = float(attrs["occupancy_warps_per_sm"])
        if _is_num(attrs.get("sm_imbalance")):
            self.sm_imbalance_max = max(self.sm_imbalance_max, float(attrs["sm_imbalance"]))

    def stage_share(self, kind: str) -> float:
        total = sum(self.kind_cycles.values())
        return self.kind_cycles.get(kind, 0.0) / total if total > 0 else 0.0


#: resilience event names the ``summary`` footer counts, in its order
RESILIENCE_EVENTS = (
    "resilience.fault_injected",
    "resilience.plan_invalidated",
    "resilience.checkpoint_save",
    "resilience.checkpoint_restore",
)


@dataclass
class TraceFold:
    """A trace folded once: one row per span identity, events by name."""

    rows: dict[str, IdentityRow]
    events: Counter

    def named(self, name: str) -> list[IdentityRow]:
        return [row for row in self.rows.values() if row.name == name]

    def plan_cache(self) -> tuple[int, int]:
        """(warm, total) kernel launches, from their ``cached`` attrs."""
        rows = self.rows.values()
        return sum(r.warm for r in rows), sum(r.launches for r in rows)

    def resilience(self) -> dict[str, int]:
        """Fault/recovery event counts (:data:`RESILIENCE_EVENTS`).

        Every recovery path (:mod:`repro.resilience`) emits an obs
        event, so a chaos run is auditable from the same file the
        regression gate reads.
        """
        return {name: self.events[name] for name in RESILIENCE_EVENTS}

    def serve(self) -> dict[str, float | int]:
        """The inference service's activity.

        ``serve.request`` spans carry per-request wall latency (emitted
        retroactively via :func:`repro.obs.spans.emit_span` since a
        request crosses tasks); ``serve.batch`` spans carry the
        fused-launch occupancy; ``serve.rpc`` spans are the transport
        edge; ``serve.*`` events count admission rejections, unbatched
        fallbacks, pre-launch deadline sheds, breaker transitions and
        client transport retries.
        """
        latencies = [w for row in self.named("serve.request") for w in row.walls]
        occupancies = [o for row in self.named("serve.batch") for o in row.occupancies]
        events = self.events
        return {
            "requests": len(latencies),
            "shed": events["serve.shed"],
            "timeouts": events["serve.timeout"],
            "degraded": events["serve.degraded"],
            "deadline_shed": events["serve.deadline_shed"],
            "breaker_transitions": events["serve.breaker"],
            "client_retries": events["serve.client_retry"],
            "rpcs": sum(row.count for row in self.named("serve.rpc")),
            "batches": len(occupancies),
            "mean_occupancy": (sum(occupancies) / len(occupancies)) if occupancies else 0.0,
            "p50_ms": percentile(latencies, 50),
            "p99_ms": percentile(latencies, 99),
        }


def fold_trace(records: Iterable[JsonDict]) -> TraceFold:
    """Group a trace by :func:`span_key` in one pass.

    Planning-stage spans (:data:`PLAN_STAGE_NAMES`) close before the
    launch span they nest under, so their wall time waits by parent id
    until that launch arrives and is charged to its identity.
    """
    rows: dict[str, IdentityRow] = {}
    events: Counter = Counter()
    stage_walls: dict[object, dict[str, float]] = {}
    for rec in records:
        if rec.get("type") == "event":
            events[rec.get("name")] += 1
            continue
        if rec.get("type") != "span":
            continue
        key = span_key(rec)
        row = rows.get(key)
        if row is None:
            row = rows[key] = IdentityRow(key, str(rec.get("name", "?")))
        row.add(rec)
        wall = rec.get("wall_ms")
        if rec.get("name") in PLAN_STAGE_NAMES and _is_num(wall):
            stage = str(rec["name"]).split(".", 1)[1]
            pending = stage_walls.setdefault(rec.get("parent_id"), {})
            pending[stage] = pending.get(stage, 0.0) + wall
        if rec.get("attrs", {}).get("cached") is not None:
            for stage, ms in stage_walls.pop(rec.get("span_id"), {}).items():
                row.stage_wall_ms[stage] = row.stage_wall_ms.get(stage, 0.0) + ms
    return TraceFold(rows, events)


def format_summary(fold: TraceFold) -> str:
    """The ``python -m repro.obs summary`` report: identities, then footers."""
    rows = sorted(fold.rows.values(), key=lambda r: (-r.sim_us, -r.wall_ms, r.key))
    lines = [f"{'span':<64} {'count':>6} {'sim us':>14} {'wall ms':>10} {'err':>4}"]
    lines.append("-" * len(lines[0]))
    for row in rows:
        lines.append(
            f"{row.key:<64} {row.count:>6} {row.sim_us:>14,.1f} "
            f"{row.wall_ms:>10.2f} {row.errors:>4}"
        )
    total_sim = sum(r.sim_us for r in rows)
    lines.append(f"{len(rows)} span identities, {total_sim:,.1f} total simulated us")
    lines.append(format_plan_cache_line(*fold.plan_cache()))
    lines.append(format_resilience_line(fold.resilience()))
    lines.append(format_serve_line(fold.serve()))
    return "\n".join(lines)


def format_plan_cache_line(warm: int, total: int) -> str:
    """Human-readable plan-cache hit-rate footer for ``summary``."""
    if total == 0:
        return "plan cache: no kernel launches in trace"
    return (
        f"plan cache: {warm}/{total} kernel launches replayed from cache "
        f"({warm / total:.0%} hit rate)"
    )


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
