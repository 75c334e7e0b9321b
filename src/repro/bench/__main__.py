"""CLI: regenerate any paper table/figure.

Usage::

    python -m repro.bench                         # list experiments
    python -m repro.bench fig03                   # run one (full sweep)
    python -m repro.bench fig03 --quick           # fast subset
    python -m repro.bench all --quick             # everything, quick mode
    python -m repro.bench fig03 --trace t.jsonl   # + JSONL span trace
    python -m repro.bench fig03 --metrics m.json  # + metrics snapshot

A ``--trace`` run records one span per sweep point (kernel × dataset ×
feature length) plus the kernel/stage spans beneath it and a final
``experiment.result`` event with the rendered rows — a replayable
record: ``python -m repro.obs baseline old.jsonl -o old.json`` then
``python -m repro.obs regress old.json new.jsonl`` compares two runs.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from repro import obs
from repro.bench.harness import experiment_ids, run_experiment


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        help=f"experiment id, one of {', '.join(experiment_ids())}, or 'all'",
    )
    parser.add_argument("--quick", action="store_true", help="small dataset subset")
    parser.add_argument(
        "--trace", metavar="PATH", help="stream obs spans to a JSONL trace file"
    )
    parser.add_argument(
        "--metrics", metavar="PATH", help="write a metrics.json snapshot on exit"
    )
    args = parser.parse_args(argv)

    if not args.experiment:
        print("available experiments:")
        for exp_id in experiment_ids():
            print(f"  {exp_id}")
        return 0

    ids = experiment_ids() if args.experiment == "all" else (args.experiment,)
    failures: list[tuple[str, dict]] = []
    with contextlib.ExitStack() as stack:
        if args.trace:
            stack.enter_context(obs.trace_to(args.trace))
        for exp_id in ids:
            result = run_experiment(exp_id, quick=args.quick)
            obs.event("experiment.result", experiment=exp_id, **result.to_dict())
            print(result.render())
            print()
            failures.extend((exp_id, row) for row in result.failures())
    if args.metrics:
        obs.write_metrics_json(args.metrics)
    if failures:
        # Per-point failures never abort a sweep mid-grid; they are
        # summarized here and turn the exit code non-zero at the end.
        print(f"{len(failures)} sweep point(s) failed:", file=sys.stderr)
        for exp_id, row in failures:
            where = ", ".join(
                f"{k}={row[k]}" for k in ("dataset", "dim") if k in row
            )
            print(f"  [{exp_id}] {where}: {row.get('error', '?')}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
