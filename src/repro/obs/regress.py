"""Continuous perf-regression tracking: baselines and an exact sim gate.

``python -m repro.obs baseline`` folds one or more runs of the canonical
perf snapshot into a committed ``baselines/*.json`` document, and
``python -m repro.obs regress --fail-on-regress`` gates every future
trace against it.  This is the one way the program compares two runs.

Only simulated time is compared.  It is deterministic — same graph,
same kernel config, same device model, same cycle count, every run,
every machine — so the gate is (near-)exact: any identity whose median
per-span ``sim_us`` exceeds baseline by more than ``sim_rtol`` (default
1e-9, CI uses 1e-6 for cross-version float safety) is a regression.
Wall-clock speed has its own benchmark (``e2ebench/run.py``).

Identities present on one side only are reported as added/removed —
a renamed kernel silently dropping out of the gate is itself a finding.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Any, Iterable

from repro.obs.analysis import span_key
from repro.obs.spans import JsonDict

BASELINE_SCHEMA_VERSION = 2

#: default fractional tolerance on (deterministic) simulated time
DEFAULT_SIM_RTOL = 1e-9


@dataclass
class IdentityStats:
    """Per-identity sample stats over every span carrying sim time."""

    count: int
    sim_us_median: float

    def to_json(self) -> dict[str, float | int]:
        return {"count": self.count, "sim_us_median": self.sim_us_median}

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "IdentityStats":
        return cls(count=int(doc["count"]),
                   sim_us_median=float(doc["sim_us_median"]))


def collect_identity_stats(
    records: Iterable[JsonDict],
) -> dict[str, IdentityStats]:
    """Fold a trace into per-identity stats.

    Only spans carrying a numeric ``sim_us`` participate: those are the
    deterministic, machine-independent measurements (kernel launches,
    bench points, training epochs); setup/IO spans never enter the gate.
    """
    samples: dict[str, list[float]] = {}
    for rec in records:
        if rec.get("type") != "span" or rec.get("status") != "ok":
            continue
        sim = rec.get("sim_us")
        if not isinstance(sim, (int, float)):
            continue
        samples.setdefault(span_key(rec), []).append(float(sim))
    return {
        key: IdentityStats(count=len(sims), sim_us_median=statistics.median(sims))
        for key, sims in samples.items()
    }


def baseline_from_traces(
    trace_records: list[list[JsonDict]], *, label: str = ""
) -> dict[str, Any]:
    """Fold N runs of the same workload into one baseline document.

    The runs pool into one fold.  Simulated times are identical across
    runs by construction, and the regress gate says so loudly if they
    are not.
    """
    stats = collect_identity_stats(chain.from_iterable(trace_records))
    return {
        "schema_version": BASELINE_SCHEMA_VERSION,
        "label": label,
        "runs": len(trace_records),
        "identities": {key: stats[key].to_json() for key in sorted(stats)},
    }


def save_baseline(doc: dict[str, Any], path: str | Path) -> None:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")


def load_baseline(path: str | Path) -> dict[str, Any]:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict) or "identities" not in doc:
        raise ValueError(f"{path}: not a baseline document")
    version = doc.get("schema_version")
    if version != BASELINE_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: baseline schema_version {version!r}, "
            f"expected {BASELINE_SCHEMA_VERSION}"
        )
    return doc


@dataclass
class RegressFinding:
    """One identity whose simulated time moved beyond its baseline."""

    key: str
    base: float
    current: float

    @property
    def ratio(self) -> float:
        if self.base <= 0:
            return float("inf") if self.current > 0 else 1.0
        return self.current / self.base


@dataclass
class RegressReport:
    """Outcome of gating one trace against a baseline document."""

    checked: int = 0
    sim_regressions: list[RegressFinding] = field(default_factory=list)
    sim_improvements: list[RegressFinding] = field(default_factory=list)
    added: list[str] = field(default_factory=list)
    removed: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """The CI gate: simulated time within tolerance, no identities
        silently dropped.  (Additions never gate.)"""
        return not self.sim_regressions and not self.removed


def compare_to_baseline(
    baseline: dict[str, Any],
    records: Iterable[JsonDict],
    *,
    sim_rtol: float = DEFAULT_SIM_RTOL,
) -> RegressReport:
    """Gate one trace against a baseline document (see module docstring)."""
    base = {
        key: IdentityStats.from_json(doc)
        for key, doc in baseline.get("identities", {}).items()
    }
    current = collect_identity_stats(records)
    report = RegressReport()
    report.added = sorted(set(current) - set(base))
    report.removed = sorted(set(base) - set(current))
    for key in sorted(set(base) & set(current)):
        b, c = base[key].sim_us_median, current[key].sim_us_median
        report.checked += 1
        if c > b * (1.0 + sim_rtol):
            report.sim_regressions.append(RegressFinding(key, b, c))
        elif c < b * (1.0 - max(sim_rtol, 1e-12)):
            report.sim_improvements.append(RegressFinding(key, b, c))
    report.sim_regressions.sort(key=lambda f: -f.ratio)
    report.sim_improvements.sort(key=lambda f: f.ratio)
    return report


def format_regress_report(
    report: RegressReport, *, label: str = "", limit: int = 25
) -> str:
    lines = []
    header = f"regress check vs baseline{f' {label!r}' if label else ''}: "
    header += f"{report.checked} identities compared"
    lines.append(header)
    if report.sim_regressions:
        lines.append(f"SIMULATED-TIME REGRESSIONS ({len(report.sim_regressions)}):")
        for f in report.sim_regressions[:limit]:
            lines.append(
                f"  {f.key}: {f.base:,.3f} -> {f.current:,.3f} us "
                f"({f.ratio:.4f}x)"
            )
    if report.sim_improvements:
        lines.append(f"simulated-time improvements ({len(report.sim_improvements)}):")
        for f in report.sim_improvements[:limit]:
            lines.append(
                f"  {f.key}: {f.base:,.3f} -> {f.current:,.3f} us "
                f"({f.ratio:.4f}x)"
            )
    for key in report.removed:
        lines.append(f"REMOVED from current run (gate coverage lost): {key}")
    for key in report.added:
        lines.append(f"added (not in baseline, not gated): {key}")
    verdict = "OK" if report.ok else "FAIL"
    lines.append(
        f"{verdict}: {len(report.sim_regressions)} sim regression(s), "
        f"{len(report.removed)} removed, {len(report.added)} added"
    )
    return "\n".join(lines)
