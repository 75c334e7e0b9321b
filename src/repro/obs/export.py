"""Trace exporters: JSONL event stream and console tree.

Two output shapes, matching two consumers:

* :class:`JsonlWriter` / :func:`trace_to` — one JSON object per line,
  written as each span closes.  Machine-readable, append-only, and the
  input format of ``python -m repro.obs``.
* :func:`render_tree` — the same records as an indented human-readable
  tree with wall and simulated time per span.
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path
from typing import IO, Any, Iterator

from repro.obs.spans import JsonDict, add_sink, remove_sink


def _json_default(obj: Any) -> Any:
    """Serialize numpy scalars/arrays and other strays without importing numpy."""
    item = getattr(obj, "item", None)
    if callable(item) and getattr(obj, "ndim", 1) == 0:
        return item()
    tolist = getattr(obj, "tolist", None)
    if callable(tolist):
        return tolist()
    return str(obj)


def to_json_line(record: JsonDict) -> str:
    return json.dumps(record, default=_json_default, separators=(",", ":"))


class JsonlWriter:
    """Sink writing each record as one JSON line, flushed per record."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fh: IO[str] | None = self.path.open("w", encoding="utf-8")

    def record(self, record: JsonDict) -> None:
        if self._fh is None:
            raise RuntimeError(f"JsonlWriter({self.path}) is closed")
        self._fh.write(to_json_line(record) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


@contextlib.contextmanager
def trace_to(path: str | Path) -> Iterator[JsonlWriter]:
    """Enable tracing to a JSONL file for the enclosed block."""
    writer = JsonlWriter(path)
    add_sink(writer)
    try:
        yield writer
    finally:
        remove_sink(writer)
        writer.close()


def read_trace_lenient(path: str | Path) -> tuple[list[JsonDict], int]:
    """Parse a JSONL trace file back into records, skipping bad lines.

    A trace cut short by a crash (or a partially flushed last line)
    should still summarize; returns ``(records, dropped_lines)`` so the
    CLI can surface a warning count instead of dying on line N.  Blank
    lines are ignored; non-object lines (a bare number or string that
    *is* valid JSON) count as dropped — every record must be a JSON
    object.
    """
    records: list[JsonDict] = []
    dropped = 0
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                dropped += 1
                continue
            if not isinstance(rec, dict):
                dropped += 1
                continue
            records.append(rec)
    return records, dropped


#: span attributes surfaced inline in the console tree
_TREE_ATTRS = ("kernel", "dataset", "f", "experiment", "epoch", "outcome", "error")


def render_tree(records: list[JsonDict]) -> str:
    """Render span records as an indented tree (children in close order)."""
    spans = [r for r in records if r.get("type") == "span"]
    children: dict[int | None, list[JsonDict]] = {}
    known = {r["span_id"] for r in spans}
    for rec in spans:
        parent = rec.get("parent_id")
        # A span whose parent closed in another trace/section is a root.
        children.setdefault(parent if parent in known else None, []).append(rec)

    lines: list[str] = []

    def walk(parent: int | None, depth: int) -> None:
        for rec in children.get(parent, ()):  # already in close order
            attrs = rec.get("attrs", {})
            shown = " ".join(
                f"{k}={attrs[k]}" for k in _TREE_ATTRS if k in attrs and attrs[k] is not None
            )
            sim = rec.get("sim_us")
            sim_txt = f" sim={sim:,.1f}us" if isinstance(sim, (int, float)) else ""
            status = "" if rec.get("status") == "ok" else f" [{rec.get('status')}]"
            lines.append(
                f"{'  ' * depth}{rec['name']}  wall={rec.get('wall_ms', 0.0):.2f}ms"
                f"{sim_txt}{status}" + (f"  ({shown})" if shown else "")
            )
            walk(rec["span_id"], depth + 1)

    walk(None, 0)
    return "\n".join(lines)

