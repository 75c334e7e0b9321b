"""CLI: inspect, profile, compare and gate JSONL trace files.

Usage::

    python -m repro.obs summary t.jsonl          # per-identity aggregate
    python -m repro.obs tree t.jsonl             # indented span tree
    python -m repro.obs profile t.jsonl          # deep per-kernel breakdown
    python -m repro.obs timeline t.jsonl         # per-worker span gantt
    python -m repro.obs baseline t.jsonl ... -o baselines/quick.json
    python -m repro.obs regress baselines/quick.json t.jsonl --fail-on-regress

``regress`` is the one way to compare two runs: ``baseline old.jsonl
-o old.json`` then ``regress old.json new.jsonl``.  It exits non-zero
only with ``--fail-on-regress``, so CI can gate on it while interactive
use stays informational.  All
trace readers are lenient: corrupt/truncated JSONL lines (a crashed
run's partial flush) are skipped with a count on stderr, never a crash.
"""

from __future__ import annotations

import argparse
import sys

from repro.obs.analysis import (
    format_plan_cache_line,
    format_resilience_line,
    format_serve_line,
    format_summary,
    plan_cache_summary,
    resilience_summary,
    serve_summary,
    summarize,
)
from repro.obs.export import read_trace_lenient, render_tree
from repro.obs.spans import JsonDict


def _read(path: str) -> list[JsonDict]:
    """Read a trace leniently, warning (not failing) on corrupt lines."""
    records, dropped = read_trace_lenient(path)
    if dropped:
        print(
            f"python -m repro.obs: warning: {path}: skipped {dropped} "
            f"corrupt line(s)",
            file=sys.stderr,
        )
    return records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Summarize, profile and gate repro trace files "
        "(JSONL spans).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_summary = sub.add_parser("summary", help="aggregate spans per identity")
    p_summary.add_argument("trace", help="JSONL trace file")

    p_tree = sub.add_parser("tree", help="render the span tree")
    p_tree.add_argument("trace", help="JSONL trace file")
    p_tree.add_argument("--max-depth", type=int, default=None)

    p_profile = sub.add_parser(
        "profile", help="deep per-kernel breakdown (counters, stages, hotspots)"
    )
    p_profile.add_argument("trace", help="JSONL trace file")
    p_profile.add_argument(
        "--top", type=int, default=10, help="hotspots to list (default 10)"
    )
    p_profile.add_argument(
        "--limit", type=int, default=40, help="table rows to show (default 40)"
    )

    p_timeline = sub.add_parser(
        "timeline", help="per-worker span timeline (ASCII gantt)"
    )
    p_timeline.add_argument("trace", help="JSONL trace file")
    p_timeline.add_argument(
        "--width", type=int, default=80, help="columns in the gantt strip"
    )
    p_timeline.add_argument(
        "--detail", action="store_true", help="also list every span with offsets"
    )

    p_baseline = sub.add_parser(
        "baseline", help="snapshot per-identity simulated-time stats from N runs"
    )
    p_baseline.add_argument(
        "traces", nargs="+", help="JSONL trace files (N runs of one workload)"
    )
    p_baseline.add_argument(
        "-o", "--out", required=True, help="output baseline JSON path"
    )
    p_baseline.add_argument(
        "--label", default="", help="free-form label stored in the document"
    )

    p_regress = sub.add_parser(
        "regress", help="gate a trace against a committed baseline"
    )
    p_regress.add_argument("baseline", help="baseline JSON document")
    p_regress.add_argument("trace", help="candidate JSONL trace")
    p_regress.add_argument(
        "--sim-rtol",
        type=float,
        default=None,
        help="fractional tolerance on simulated time (default 1e-9)",
    )
    p_regress.add_argument(
        "--fail-on-regress",
        action="store_true",
        help="exit 1 on sim regressions or lost gate coverage (for CI)",
    )
    args = parser.parse_args(argv)

    try:
        if args.command == "summary":
            records = _read(args.trace)
            print(format_summary(summarize(records)))
            print(format_plan_cache_line(*plan_cache_summary(records)))
            print(format_resilience_line(resilience_summary(records)))
            print(format_serve_line(serve_summary(records)))
            return 0
        if args.command == "tree":
            print(render_tree(_read(args.trace), max_depth=args.max_depth))
            return 0
        if args.command == "profile":
            from repro.obs.profile import format_profile_report, profile_trace

            rows = profile_trace(_read(args.trace))
            print(format_profile_report(rows, top=args.top, limit=args.limit))
            return 0
        if args.command == "timeline":
            from repro.obs.profile import format_timeline

            print(
                format_timeline(
                    _read(args.trace), width=args.width, detail=args.detail
                )
            )
            return 0
        if args.command == "baseline":
            from repro.obs.regress import baseline_from_traces, save_baseline

            doc = baseline_from_traces(
                [_read(path) for path in args.traces], label=args.label
            )
            save_baseline(doc, args.out)
            print(
                f"baseline {args.out}: {len(doc['identities'])} identities "
                f"from {doc['runs']} run(s)"
            )
            return 0
        # regress
        from repro.obs.regress import (
            DEFAULT_SIM_RTOL,
            compare_to_baseline,
            format_regress_report,
            load_baseline,
        )

        doc = load_baseline(args.baseline)
        report = compare_to_baseline(
            doc,
            _read(args.trace),
            sim_rtol=(
                DEFAULT_SIM_RTOL if args.sim_rtol is None else args.sim_rtol
            ),
        )
    except (OSError, ValueError) as e:
        print(f"python -m repro.obs: error: {e}", file=sys.stderr)
        return 1
    print(format_regress_report(report, label=str(doc.get("label", ""))))
    return 1 if (args.fail_on_regress and not report.ok) else 0


if __name__ == "__main__":
    sys.exit(main())
