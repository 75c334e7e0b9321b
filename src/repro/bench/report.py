"""Experiment result containers and text reporting.

Each experiment module returns an :class:`ExperimentResult` whose rows
mirror the series the paper's table/figure plots; ``render`` prints an
aligned text table, and the speedup helpers apply the paper's plotting
conventions (a speedup of 64/256 marks a baseline OOM, log-scale bars).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

#: Fig-3 convention: "a speedup of 64 means that baseline has OOM".
SDDMM_OOM_SPEEDUP = 64.0
#: Fig-4 convention: same marker at 256.
SPMM_OOM_SPEEDUP = 256.0


@dataclass
class ExperimentResult:
    experiment_id: str
    title: str
    columns: list[str]
    rows: list[dict[str, Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, **values: Any) -> None:
        self.rows.append(values)

    def numeric_column(self, name: str) -> np.ndarray:
        vals = [row.get(name) for row in self.rows]
        return np.asarray(
            [v for v in vals if isinstance(v, (int, float)) and np.isfinite(v)],
            dtype=np.float64,
        )

    def geomean(self, name: str) -> float:
        vals = self.numeric_column(name)
        vals = vals[vals > 0]
        return float(np.exp(np.log(vals).mean())) if vals.size else float("nan")

    def failures(self) -> list[dict[str, Any]]:
        """Rows recorded as per-point failures (``status == "error"``)."""
        return [row for row in self.rows if row.get("status") == "error"]

    def render(self) -> str:
        return render_table(
            f"[{self.experiment_id}] {self.title}", self.columns, self.rows, self.notes
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready record of the whole experiment (trace replay/diff)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "columns": list(self.columns),
            "rows": [dict(row) for row in self.rows],
            "notes": list(self.notes),
        }


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if not np.isfinite(value):
            return "nan"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3g}"
    return str(value)


def render_table(
    title: str,
    columns: Sequence[str],
    rows: Sequence[dict[str, Any]],
    notes: Sequence[str] = (),
) -> str:
    body = [[_fmt(row.get(c)) for c in columns] for row in rows]
    widths = [
        max(len(str(c)), *(len(r[i]) for r in body)) if body else len(str(c))
        for i, c in enumerate(columns)
    ]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(str(c).ljust(w) for c, w in zip(columns, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in body:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    for note in notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def speedup_cell(
    baseline_us: float | None,
    ours_us: float | None,
    *,
    oom_marker: float,
) -> float | str:
    """Apply the paper's figure conventions to one speedup cell."""
    if ours_us is None:
        return "OOM"  # every system failed
    if baseline_us is None:
        return oom_marker  # baseline failed where we ran
    return baseline_us / ours_us
