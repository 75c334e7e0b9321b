"""Deep per-kernel profile: the launch rows of the trace fold.

``summary`` answers "which identity was heaviest"; the profile answers
the next question a kernel engineer asks — where did the time go inside
each launch?  Every kernel span carries the cost model's internals
(per-stage ``kind_cycles``, warp counters, occupancy, DRAM traffic,
plan-cache attribution, cold-path planning wall time), so each kernel
identity of :func:`repro.obs.analysis.fold_trace` reports a
load/compute/reduce/store split, warm-launch share and wall-vs-simulated
time — the table of ``python -m repro.obs profile``.
"""

from __future__ import annotations

from repro.obs.analysis import STAGE_KINDS, TraceFold

#: identities the table lists, and hotspots the report names
TABLE_ROWS = 40
HOTSPOTS = 10


def format_profile_report(fold: TraceFold) -> str:
    """The ``python -m repro.obs profile`` report, heaviest sim time first."""
    rows = sorted(
        (row for row in fold.rows.values() if row.launches),
        key=lambda r: (-r.sim_us, -r.launch_wall_ms, r.key),
    )
    if not rows:
        return "no kernel launches in trace"
    total_sim = sum(r.sim_us for r in rows)
    lines = [
        f"{'kernel identity':<58} {'n':>4} {'warm':>5} {'sim us':>12} "
        f"{'wall ms':>9} {'DRAM MB':>8} {'ld%':>4} {'cp%':>4} {'rd%':>4} "
        f"{'st%':>4} {'occ':>4} {'imb':>5}"
    ]
    lines.append("-" * len(lines[0]))
    for row in rows[:TABLE_ROWS]:
        shares = [f"{row.stage_share(k) * 100:>3.0f}%" for k in STAGE_KINDS]
        lines.append(
            f"{row.key:<58} {row.launches:>4} {row.warm / row.launches:>5.0%} "
            f"{row.sim_us:>12,.1f} {row.launch_wall_ms:>9.2f} "
            f"{row.dram_bytes / 1e6:>8.2f} {' '.join(shares)} "
            f"{row.occupancy_warps:>4.0f} {row.sm_imbalance_max:>5.2f}"
        )
    if len(rows) > TABLE_ROWS:
        lines.append(f"... {len(rows) - TABLE_ROWS} more identities")
    lines.append("")
    lines.append(f"top {min(HOTSPOTS, len(rows))} hotspots by simulated time:")
    for i, row in enumerate(rows[:HOTSPOTS], start=1):
        share = row.sim_us / total_sim if total_sim > 0 else 0.0
        lines.append(f"  {i}. {row.key}  {row.sim_us:,.1f} us ({share:.1%} of total)")
    planning = [r for r in rows if r.stage_wall_ms or r.cost_wall_ms > 0.0]
    if planning:
        lines.append("")
        lines.append("cold-path planning wall time (host, saved on warm replays):")
        for row in planning[:HOTSPOTS]:
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
        f"{sum(r.warm for r in rows)}/{sum(r.launches for r in rows)} warm launches"
    )
    return "\n".join(lines)
