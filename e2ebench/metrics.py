"""Metric names, units and directions, and the assembly of result lines.

``BENCHMARK.json`` lists exactly these names; a test keeps the two equal.
"""

from __future__ import annotations

from e2ebench import stats
from e2ebench.layers import ROWS
from e2ebench.probe import Probe

SLOTS = ("a", "b")

END_TO_END = (
    ("a_p50_ms", "ms", "lower"),
    ("b_p50_ms", "ms", "lower"),
    ("a_sim_us", "sim_us", "lower"),
    ("b_sim_us", "sim_us", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: per-slot metrics beyond the self-time rows
SLOT_EXTRAS = (
    ("nn.dense_bwd_ms", "ms", "lower"),
    ("exec.bwd_ms", "ms", "lower"),
    ("kernels.calls", "count", "lower"),
    ("core.plancache.hits", "count", "higher"),
    ("core.plancache.misses", "count", "lower"),
    ("core.plancache.hit_ratio", "ratio", "higher"),
    ("sim.dram_mb", "MB", "lower"),
    ("sim.load_share", "ratio", "lower"),
    ("serve.service_ms", "ms", "lower"),
    ("unattributed_ms", "ms", "lower"),
    ("op_ms", "ms", "lower"),
    ("tail_ms", "ms", "lower"),
    ("tail_pct", "%", "higher"),
    ("samples", "count", "higher"),
)

WORKLOAD_LEVEL = (
    ("serve.occupancy", "count", "higher"),
    ("serve.pad_useful_ratio", "ratio", "higher"),
    ("serve.loaded_p50_ms", "ms", "lower"),
    ("serve.loaded_p99_ms", "ms", "lower"),
    ("sim.speedup_geomean", "ratio", "higher"),
    ("setup.sparse_ms", "ms", "lower"),
    ("setup.simulate_ms", "ms", "lower"),
    ("trace_overhead_pct", "%", "lower"),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    spec = []
    for k in SLOTS:
        spec += [(f"{k}.{row}_ms", "ms", "lower") for row in ROWS]
        spec += [(f"{k}.{name}", unit, better) for name, unit, better in SLOT_EXTRAS]
    return spec + list(WORKLOAD_LEVEL)


UNITS = {name: unit for name, unit, _ in END_TO_END + tuple(per_layer_spec())}


def slot_layers(k: str, traced: Probe, untraced_ms: list[float]) -> dict[str, float]:
    """Per-layer metrics of op slot ``k``: the traced run's self-time rows
    (per-op means), its counters, and the tail of the untraced samples."""
    n = len(traced.ops[k])
    table = traced.layer_ms(k)
    shadow = traced.shadow_ms(k)
    counts = traced.counts[k]
    hits, misses = counts["core.plancache.hits"], counts["core.plancache.misses"]
    cycles = counts["sim.cycles"]
    tail_pct, tail_ms = stats.tail(untraced_ms)
    values = {f"{k}.{row}_ms": table.get(row, 0.0) for row in ROWS}
    values.update({
        f"{k}.nn.dense_bwd_ms": shadow.get("nn.dense_bwd", 0.0),
        f"{k}.exec.bwd_ms": shadow.get("exec.bwd", 0.0),
        f"{k}.kernels.calls": counts["kernels.calls"] / n if n else 0.0,
        f"{k}.core.plancache.hits": hits / n if n else 0.0,
        f"{k}.core.plancache.misses": misses / n if n else 0.0,
        f"{k}.core.plancache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        f"{k}.sim.dram_mb": counts["sim.dram_bytes"] / 1e6 / n if n else 0.0,
        f"{k}.sim.load_share": counts["sim.load_cycles"] / cycles if cycles else 0.0,
        f"{k}.serve.service_ms": counts["serve.service_ms"] / n if n else 0.0,
        f"{k}.unattributed_ms": table["unattributed"],
        f"{k}.op_ms": table["op"],
        f"{k}.tail_ms": tail_ms,
        f"{k}.tail_pct": tail_pct,
        f"{k}.samples": float(len(untraced_ms)),
    })
    return values


def result_line(correct: bool, attempted: int, failed: int, values: dict[str, float]) -> dict:
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": UNITS[name]}
            for name, value in values.items()
        },
    }
