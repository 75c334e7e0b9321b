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

from repro.obs.analysis import TraceFold, fold_trace
from repro.obs.spans import JsonDict

BASELINE_SCHEMA_VERSION = 2

#: default fractional tolerance on (deterministic) simulated time
DEFAULT_SIM_RTOL = 1e-9

#: regressions and improvements the report lists, each
REPORT_LIMIT = 25


def _identity_stats(fold: TraceFold) -> dict[str, dict[str, float | int]]:
    """Per-identity count and median ``sim_us`` of the status-ok spans.

    Only spans carrying a numeric ``sim_us`` participate: those are the
    deterministic, machine-independent measurements (kernel launches,
    bench points, training epochs); setup/IO spans never enter the gate.
    """
    return {
        key: {"count": len(row.ok_sims),
              "sim_us_median": statistics.median(row.ok_sims)}
        for key, row in fold.rows.items()
        if row.ok_sims
    }


def baseline_from_traces(
    trace_records: list[list[JsonDict]], *, label: str = ""
) -> dict[str, Any]:
    """Fold N runs of the same workload into one baseline document.

    The runs pool into one fold.  Simulated times are identical across
    runs by construction, and the regress gate says so loudly if they
    are not.
    """
    stats = _identity_stats(fold_trace(chain.from_iterable(trace_records)))
    return {
        "schema_version": BASELINE_SCHEMA_VERSION,
        "label": label,
        "runs": len(trace_records),
        "identities": {key: stats[key] for key in sorted(stats)},
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
        key: float(doc["sim_us_median"])
        for key, doc in baseline.get("identities", {}).items()
    }
    current = {
        key: stats["sim_us_median"]
        for key, stats in _identity_stats(fold_trace(records)).items()
    }
    report = RegressReport()
    report.added = sorted(set(current) - set(base))
    report.removed = sorted(set(base) - set(current))
    for key in sorted(set(base) & set(current)):
        b, c = base[key], current[key]
        report.checked += 1
        if c > b * (1.0 + sim_rtol):
            report.sim_regressions.append(RegressFinding(key, b, c))
        elif c < b * (1.0 - max(sim_rtol, 1e-12)):
            report.sim_improvements.append(RegressFinding(key, b, c))
    report.sim_regressions.sort(key=lambda f: -f.ratio)
    report.sim_improvements.sort(key=lambda f: f.ratio)
    return report


def format_regress_report(report: RegressReport, *, label: str = "") -> str:
    lines = []
    header = f"regress check vs baseline{f' {label!r}' if label else ''}: "
    header += f"{report.checked} identities compared"
    lines.append(header)
    if report.sim_regressions:
        lines.append(f"SIMULATED-TIME REGRESSIONS ({len(report.sim_regressions)}):")
        for f in report.sim_regressions[:REPORT_LIMIT]:
            lines.append(
                f"  {f.key}: {f.base:,.3f} -> {f.current:,.3f} us "
                f"({f.ratio:.4f}x)"
            )
    if report.sim_improvements:
        lines.append(f"simulated-time improvements ({len(report.sim_improvements)}):")
        for f in report.sim_improvements[:REPORT_LIMIT]:
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
