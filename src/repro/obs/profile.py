"""Deep-profile and timeline views over JSONL traces.

PR 1's ``summary`` answers "which identity was heaviest"; this module
answers the next two questions a kernel engineer asks:

* **Where did the time go inside each launch?**  Every kernel span now
  carries the cost model's internals (per-stage ``kind_cycles``, warp
  counters, occupancy, DRAM traffic, plan-cache attribution, cold-path
  planning wall time), so :func:`profile_trace` folds a trace into one
  row per kernel identity with a load/compute/reduce/store split,
  warm-launch share, and wall-vs-simulated time — the per-kernel
  breakdown table of ``python -m repro.obs profile``.

* **What did each worker do, when?**  :func:`timeline_lanes` groups
  spans into per-worker lanes — the inference service's executor
  threads by their ``worker`` attribute, everything else on ``main`` —
  and :func:`format_timeline` renders them as an ASCII gantt, making
  stragglers visible straight from the trace file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.obs.analysis import span_key
from repro.obs.spans import JsonDict

#: the cost-model phase kinds, in pipeline order (see repro.gpusim.trace)
STAGE_KINDS = ("load", "compute", "reduce", "store")

#: span-name prefixes that count as kernel launches in the profile view
KERNEL_SPAN_PREFIX = "kernel."

#: planning-stage spans nested under a kernel span (cold launches only)
PLAN_STAGE_NAMES = ("gnnone.stage1", "gnnone.schedule", "gnnone.stage2")


@dataclass
class ProfileRow:
    """Aggregate of every kernel launch sharing one identity."""

    key: str
    count: int = 0
    warm: int = 0
    sim_us: float = 0.0
    wall_ms: float = 0.0
    #: wall time of estimate_cost() on cold launches (plan-cache target)
    cost_wall_ms: float = 0.0
    #: wall time of the gnnone stage pipeline, per stage span name
    stage_wall_ms: dict[str, float] = field(default_factory=dict)
    dram_bytes: float = 0.0
    #: cost-model busy cycles per phase kind, summed over launches
    kind_cycles: dict[str, float] = field(default_factory=dict)
    #: aggregate warp counters (load_instrs, sectors, barriers, ...)
    counters: dict[str, float] = field(default_factory=dict)
    occupancy_warps: float = 0.0
    sm_imbalance_max: float = 0.0

    def fold(self, rec: JsonDict) -> None:
        attrs = rec.get("attrs", {})
        self.count += 1
        self.warm += bool(attrs.get("cached"))
        sim = rec.get("sim_us")
        if isinstance(sim, (int, float)):
            self.sim_us += sim
        wall = rec.get("wall_ms")
        if isinstance(wall, (int, float)):
            self.wall_ms += wall
        cost_wall = attrs.get("cost_wall_ms")
        if isinstance(cost_wall, (int, float)):
            self.cost_wall_ms += cost_wall
        dram = attrs.get("dram_bytes")
        if isinstance(dram, (int, float)):
            self.dram_bytes += dram
        for kind, cycles in (attrs.get("kind_cycles") or {}).items():
            self.kind_cycles[kind] = self.kind_cycles.get(kind, 0.0) + float(cycles)
        for name, value in (attrs.get("counters") or {}).items():
            self.counters[name] = self.counters.get(name, 0.0) + float(value)
        occ = attrs.get("occupancy_warps_per_sm")
        if isinstance(occ, (int, float)):
            self.occupancy_warps = float(occ)
        imb = attrs.get("sm_imbalance")
        if isinstance(imb, (int, float)):
            self.sm_imbalance_max = max(self.sm_imbalance_max, float(imb))

    @property
    def warm_share(self) -> float:
        return self.warm / self.count if self.count else 0.0

    def stage_share(self, kind: str) -> float:
        total = sum(self.kind_cycles.values())
        return self.kind_cycles.get(kind, 0.0) / total if total > 0 else 0.0


def profile_trace(records: Iterable[JsonDict]) -> list[ProfileRow]:
    """One :class:`ProfileRow` per kernel identity, heaviest sim time first.

    Planning-stage child spans (``gnnone.stage1`` / ``schedule`` /
    ``stage2``) are attributed to their parent kernel identity via the
    trace's parent links, so the cold-path planning cost shows up next
    to the launches it planned.
    """
    records = list(records)
    table: dict[str, ProfileRow] = {}
    kernel_by_id: dict[int, str] = {}
    for rec in records:
        if rec.get("type") != "span" or not str(rec.get("name", "")).startswith(
            KERNEL_SPAN_PREFIX
        ):
            continue
        # Launch spans carry a ``cached`` attr; dispatch/tuning helper
        # spans share the name prefix but are not kernel launches.
        if "cached" not in rec.get("attrs", {}):
            continue
        key = span_key(rec)
        kernel_by_id[rec["span_id"]] = key
        if key not in table:
            table[key] = ProfileRow(key)
        table[key].fold(rec)
    # Second pass: charge nested planning-stage wall time to the kernel.
    for rec in records:
        if rec.get("type") != "span" or rec.get("name") not in PLAN_STAGE_NAMES:
            continue
        key = kernel_by_id.get(rec.get("parent_id"))
        if key is None:
            continue
        row = table[key]
        wall = rec.get("wall_ms")
        if isinstance(wall, (int, float)):
            stage = str(rec["name"]).split(".", 1)[1]
            row.stage_wall_ms[stage] = row.stage_wall_ms.get(stage, 0.0) + wall
    return sorted(table.values(), key=lambda r: (-r.sim_us, -r.wall_ms, r.key))


def format_profile_report(
    rows: list[ProfileRow], *, top: int = 10, limit: int = 40
) -> str:
    """The ``python -m repro.obs profile`` report."""
    if not rows:
        return "no kernel launches in trace"
    total_sim = sum(r.sim_us for r in rows)
    lines = [
        f"{'kernel identity':<58} {'n':>4} {'warm':>5} {'sim us':>12} "
        f"{'wall ms':>9} {'DRAM MB':>8} {'ld%':>4} {'cp%':>4} {'rd%':>4} "
        f"{'st%':>4} {'occ':>4} {'imb':>5}"
    ]
    lines.append("-" * len(lines[0]))
    for row in rows[:limit]:
        shares = [f"{row.stage_share(k) * 100:>3.0f}%" for k in STAGE_KINDS]
        lines.append(
            f"{row.key:<58} {row.count:>4} {row.warm_share:>5.0%} "
            f"{row.sim_us:>12,.1f} {row.wall_ms:>9.2f} "
            f"{row.dram_bytes / 1e6:>8.2f} {' '.join(shares)} "
            f"{row.occupancy_warps:>4.0f} {row.sm_imbalance_max:>5.2f}"
        )
    if len(rows) > limit:
        lines.append(f"... {len(rows) - limit} more identities")
    lines.append("")
    lines.append(f"top {min(top, len(rows))} hotspots by simulated time:")
    for i, row in enumerate(rows[:top], start=1):
        share = row.sim_us / total_sim if total_sim > 0 else 0.0
        lines.append(f"  {i}. {row.key}  {row.sim_us:,.1f} us ({share:.1%} of total)")
    planning = [r for r in rows if r.stage_wall_ms or r.cost_wall_ms > 0.0]
    if planning:
        lines.append("")
        lines.append("cold-path planning wall time (host, saved on warm replays):")
        for row in planning[:top]:
            parts = [
                f"{stage} {ms:.2f}ms"
                for stage, ms in sorted(row.stage_wall_ms.items())
            ]
            if row.cost_wall_ms > 0.0:
                parts.append(f"cost-model {row.cost_wall_ms:.2f}ms")
            lines.append(f"  {row.key}: {', '.join(parts)}")
    lines.append("")
    lines.append(
        f"{len(rows)} kernel identities, {total_sim:,.1f} total simulated us, "
        f"{sum(r.warm for r in rows)}/{sum(r.count for r in rows)} warm launches"
    )
    return "\n".join(lines)


# --------------------------------------------------------------- timeline

@dataclass
class LaneEntry:
    """One span laid onto a worker lane (offsets in ms from trace start)."""

    start_ms: float
    dur_ms: float
    label: str


def timeline_lanes(records: Iterable[JsonDict]) -> dict[str, list[LaneEntry]]:
    """Per-worker lanes of every span carrying a ``worker`` attribute.

    Spans without a worker attribute but with kernel/bench names are
    grouped under a ``"main"`` lane so serial traces still render.
    """
    spans = [
        r
        for r in records
        if r.get("type") == "span" and isinstance(r.get("start_s"), (int, float))
    ]
    if not spans:
        return {}
    interesting = []
    for rec in spans:
        attrs = rec.get("attrs", {})
        worker = attrs.get("worker")
        name = str(rec.get("name", ""))
        if worker is None:
            if name.startswith(
                ("kernel.", "bench.", "train.epoch", "serve.")
            ):
                worker = "main"
            else:
                continue
        interesting.append((str(worker), rec))
    if not interesting:
        return {}
    t0 = min(rec["start_s"] for _, rec in interesting)
    lanes: dict[str, list[LaneEntry]] = {}
    for worker, rec in interesting:
        attrs = rec.get("attrs", {})
        bits = [str(rec["name"])]
        for attr in (
            "kind", "kernel", "index", "dataset", "f", "epoch", "occupancy",
        ):
            if attrs.get(attr) is not None:
                bits.append(f"{attr}={attrs[attr]}")
        lanes.setdefault(worker, []).append(
            LaneEntry(
                start_ms=(rec["start_s"] - t0) * 1e3,
                dur_ms=float(rec.get("wall_ms", 0.0)),
                label=" ".join(bits),
            )
        )
    for entries in lanes.values():
        entries.sort(key=lambda e: e.start_ms)
    return lanes


def format_timeline(
    records: Iterable[JsonDict], *, width: int = 80, detail: bool = False
) -> str:
    """ASCII per-worker gantt of the trace (``obs timeline``).

    Each lane paints its spans into a ``width``-character strip scaled
    to the full trace window; ``detail`` appends one line per span with
    exact offsets.  Stragglers show up as the lane whose marks extend
    furthest right.
    """
    lanes = timeline_lanes(records)
    if not lanes:
        return "no timed spans with worker attribution in trace"
    window_ms = max(
        (e.start_ms + e.dur_ms) for entries in lanes.values() for e in entries
    )
    window_ms = max(window_ms, 1e-6)
    lane_width = max(len(name) for name in lanes)
    lines = [
        f"trace window {window_ms:.2f} ms, {len(lanes)} lane(s), "
        f"{sum(len(e) for e in lanes.values())} span(s); "
        f"each column = {window_ms / width:.3f} ms"
    ]
    glyphs = "0123456789abcdefghijklmnopqrstuvwxyz"
    for name in sorted(lanes):
        strip = [" "] * width
        for i, entry in enumerate(lanes[name]):
            lo = int(entry.start_ms / window_ms * width)
            hi = int((entry.start_ms + entry.dur_ms) / window_ms * width)
            lo = min(lo, width - 1)
            hi = max(lo + 1, min(hi + 1, width))
            glyph = glyphs[i % len(glyphs)]
            for col in range(lo, hi):
                strip[col] = glyph
        # Busy = union of span intervals, not their sum: nested spans
        # (kernel inside bench inside experiment) overlap on one lane.
        busy = 0.0
        cursor = -1.0
        for entry in lanes[name]:
            lo, hi = entry.start_ms, entry.start_ms + entry.dur_ms
            if hi <= cursor:
                continue
            busy += hi - max(lo, cursor)
            cursor = hi
        lines.append(
            f"{name:<{lane_width}} |{''.join(strip)}| "
            f"{busy:.2f} ms busy ({busy / window_ms:.0%})"
        )
    if detail:
        lines.append("")
        for name in sorted(lanes):
            for entry in lanes[name]:
                lines.append(
                    f"{name:<{lane_width}}  "
                    f"[{entry.start_ms:9.3f} +{entry.dur_ms:8.3f} ms]  {entry.label}"
                )
    return "\n".join(lines)
