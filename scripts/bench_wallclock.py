#!/usr/bin/env python
"""Wall-clock micro-benchmark for the structural plan cache.

Measures host wall time — not simulated device time — for the two hot
paths the cache targets, cold (first launch of each structure pays the
full Stage-1/schedule/trace/cost pipeline) versus warm (every structure
replayed from cache, only numerics run):

* a GCN training fit (the Fig-5/6/7 loop: identical forward/backward
  launch structures every epoch);
* a Fig-4-style SpMM sweep repeated back-to-back (a figure regeneration
  run revisits each (kernel, dataset, F) point).

Writes ``BENCH_pr2.json`` with the timings, speedups and cache
counters, plus a ``metrics.json`` snapshot of the ``repro.obs``
registry.

Usage::

    PYTHONPATH=src python scripts/bench_wallclock.py --quick
    PYTHONPATH=src python scripts/bench_wallclock.py --check   # CI gate
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path


def _bench_gcn_fit(dataset_key: str, epochs: int, feature_length: int,
                   hidden: int = 16) -> dict:
    """Per-epoch wall times of one fit: epoch 1 is cold, the rest warm."""
    import scipy.sparse  # noqa: F401 -- pre-pay the lazy import outside the timers

    from repro.core import clear_plan_cache, clear_tune_cache, get_plan_cache
    from repro.nn import GCN, GraphData, Trainer, synthesize
    from repro.sparse import load_dataset

    clear_plan_cache()
    clear_tune_cache()
    dataset = load_dataset(dataset_key)
    graph = GraphData(dataset.coo)
    data = synthesize(dataset, feature_length=feature_length, seed=1)
    model = GCN(data.feature_length, hidden, data.num_classes, num_layers=2,
                backend="gnnone", seed=3)
    trainer = Trainer(model, graph, data, lr=0.02)

    epoch_s: list[float] = []
    epoch_sim_us: list[float] = []
    for epoch in range(epochs):
        t0 = time.perf_counter()
        record = trainer.train_epoch(epoch)
        epoch_s.append(time.perf_counter() - t0)
        epoch_sim_us.append(record.sim_us)

    cold_s = epoch_s[0]
    warm_s = statistics.median(epoch_s[1:])
    cache = get_plan_cache()
    return {
        "dataset": dataset_key,
        "epochs": epochs,
        "feature_length": feature_length,
        "hidden": hidden,
        "cold_epoch_s": cold_s,
        "warm_epoch_s": warm_s,
        "speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
        # The simulated epoch time must not depend on cache state: the
        # warm replays are bit-identical to the cold simulation.
        "sim_us_bit_identical": all(us == epoch_sim_us[0] for us in epoch_sim_us),
        "epoch_sim_us": epoch_sim_us[0],
        "plancache": cache.stats(),
    }


def _bench_fig4_sweep(dataset_key: str, feature_lengths: tuple[int, ...],
                      kernels: tuple[str, ...]) -> dict:
    """One Fig-4-style SpMM sweep, run twice: pass 1 cold, pass 2 warm."""
    import scipy.sparse  # noqa: F401

    from repro.bench.harness import time_spmm
    from repro.core import clear_plan_cache, get_plan_cache

    clear_plan_cache()

    def sweep() -> dict[str, float | None]:
        return {
            f"{k}/F{f}": time_spmm(k, dataset_key, f)
            for k in kernels
            for f in feature_lengths
        }

    t0 = time.perf_counter()
    cold_times = sweep()
    cold_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm_times = sweep()
    warm_s = time.perf_counter() - t0
    return {
        "dataset": dataset_key,
        "kernels": list(kernels),
        "feature_lengths": list(feature_lengths),
        "cold_pass_s": cold_s,
        "warm_pass_s": warm_s,
        "speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
        "sim_us_bit_identical": cold_times == warm_times,
        "plancache": get_plan_cache().stats(),
    }


def _append_trajectory(path: str, entry: dict) -> None:
    """Record one headline entry, SHA-stamped and deduplicated.

    Delegates to :func:`repro.bench.trajectory.append_trajectory`: a
    re-run of the same benchmark at the same commit replaces its prior
    entry, so iterating locally doesn't inflate the trajectory.
    """
    from repro.bench.trajectory import append_trajectory

    append_trajectory(path, entry)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smallest dataset / fewest epochs (CI smoke)")
    parser.add_argument("--out", default="BENCH_pr2.json",
                        help="result JSON path (default: BENCH_pr2.json)")
    parser.add_argument("--metrics", default="metrics.json",
                        help="repro.obs metrics snapshot path")
    parser.add_argument("--trajectory", default="BENCH_trajectory.json",
                        help="cumulative headline-numbers file (appended; "
                             "'' disables)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero unless warm/cold speedup > 1 "
                             "and the plan cache registered hits")
    args = parser.parse_args(argv)

    from repro import obs

    obs.reset_metrics()

    if args.quick:
        gcn = _bench_gcn_fit("G0", epochs=6, feature_length=32)
        sweep = _bench_fig4_sweep("G0", (16, 32), ("gnnone", "dgl"))
    else:
        # hidden=8 keeps the sparse launches (the cache's target) dominant
        # over the model's dense matmuls in the warm epochs.
        gcn = _bench_gcn_fit("G2", epochs=10, feature_length=32, hidden=8)
        sweep = _bench_fig4_sweep("G2", (6, 16, 32, 64),
                                  ("gnnone", "dgl", "cusparse", "ge-spmm"))

    # Each section clears the cache up-front, so its stats snapshot covers
    # just that section; aggregate the two for the headline counters.
    hits = gcn["plancache"]["plancache_hits"] + sweep["plancache"]["plancache_hits"]
    misses = gcn["plancache"]["plancache_misses"] + sweep["plancache"]["plancache_misses"]
    report = {
        "benchmark": "plan-cache wall-clock (PR 2)",
        "quick": args.quick,
        "gcn_fit": gcn,
        "fig4_sweep": sweep,
        "plancache": {
            "plancache_hits": hits,
            "plancache_misses": misses,
            "plancache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        },
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    obs.write_metrics_json(args.metrics)
    if args.trajectory:
        _append_trajectory(args.trajectory, {
            "benchmark": "plan-cache",
            "timestamp": time.time(),
            "quick": args.quick,
            "gcn_cold_epoch_s": gcn["cold_epoch_s"],
            "gcn_warm_epoch_s": gcn["warm_epoch_s"],
            "gcn_speedup": gcn["speedup"],
            "sweep_cold_pass_s": sweep["cold_pass_s"],
            "sweep_warm_pass_s": sweep["warm_pass_s"],
            "sweep_speedup": sweep["speedup"],
            "epoch_sim_us": gcn["epoch_sim_us"],
        })

    print(f"GCN fit   ({gcn['dataset']}): cold epoch {gcn['cold_epoch_s'] * 1e3:8.1f} ms, "
          f"warm epoch {gcn['warm_epoch_s'] * 1e3:8.1f} ms  -> {gcn['speedup']:.2f}x")
    print(f"Fig4 sweep({sweep['dataset']}): cold pass  {sweep['cold_pass_s'] * 1e3:8.1f} ms, "
          f"warm pass  {sweep['warm_pass_s'] * 1e3:8.1f} ms  -> {sweep['speedup']:.2f}x")
    print(f"plan cache: {hits} hits / {hits + misses} lookups "
          f"({report['plancache']['plancache_hit_rate']:.0%})")
    print(f"wrote {args.out} and {args.metrics}")

    if args.check:
        problems = []
        if gcn["speedup"] <= 1.0:
            problems.append(f"GCN warm/cold speedup {gcn['speedup']:.2f} <= 1")
        if sweep["speedup"] <= 1.0:
            problems.append(f"sweep warm/cold speedup {sweep['speedup']:.2f} <= 1")
        if hits == 0:
            problems.append("plan cache registered zero hits")
        if not gcn["sim_us_bit_identical"] or not sweep["sim_us_bit_identical"]:
            problems.append("simulated time differs between cold and warm runs")
        if problems:
            print("CHECK FAILED: " + "; ".join(problems), file=sys.stderr)
            return 1
        print("CHECK OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
