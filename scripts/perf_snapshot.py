#!/usr/bin/env python
"""Canonical perf snapshot: one trace for profiling and regression gates.

Runs the quick Fig-4 SpMM and Fig-3 SDDMM sweeps, a 2-epoch GCN fit and
a 2-epoch GAT fit — the same workload every time, on every machine —
with full obs tracing, and writes one JSONL trace.  That trace is the
single input to the whole observability tool-chain, whose views all
format one fold of it (``repro.obs.fold_trace``):

    PYTHONPATH=src python scripts/perf_snapshot.py -o perf_trace.jsonl
    python -m repro.obs summary  perf_trace.jsonl     # per-identity table
    python -m repro.obs profile  perf_trace.jsonl     # deep breakdown
    python -m repro.obs baseline perf_trace.jsonl -o baselines/quick.json
    python -m repro.obs regress  baselines/quick.json perf_trace.jsonl \
        --sim-rtol 1e-6 --fail-on-regress             # the CI gate

Simulated times in the trace are deterministic (the device model never
consults the host clock), so two snapshots on different machines gate
each other exactly.  The gate reads simulated time only; wall-clock
speed is measured by ``e2ebench/run.py``.
"""

from __future__ import annotations

import argparse
import sys


def run_snapshot(trace_path: str, *, epochs: int = 2, seed: int = 11) -> None:
    """The canonical workload, traced to ``trace_path``."""
    from repro import obs
    from repro.bench.harness import run_experiment
    from repro.core import clear_plan_cache
    from repro.nn import GAT, GCN, GraphData, Trainer, synthesize
    from repro.sparse.datasets import load_dataset

    clear_plan_cache()
    with obs.trace_to(trace_path):
        with obs.span("experiment", experiment="perf_snapshot"):
            run_experiment("fig04", quick=True)
            run_experiment("fig03", quick=True)
            dataset = load_dataset("G0")
            data = synthesize(dataset, feature_length=16, seed=seed)
            graph = GraphData(dataset.coo)
            gcn = GCN(data.feature_length, 16, data.num_classes, seed=seed)
            Trainer(gcn, graph, data, lr=0.02).fit(epochs)
            gat = GAT(data.feature_length, 16, data.num_classes,
                      num_layers=2, seed=seed)
            Trainer(gat, graph, data, lr=0.01).fit(epochs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--out", default="perf_trace.jsonl",
                        help="output JSONL trace path")
    parser.add_argument("--epochs", type=int, default=2,
                        help="GCN and GAT fit epochs (default 2)")
    args = parser.parse_args(argv)

    run_snapshot(args.out, epochs=args.epochs)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
