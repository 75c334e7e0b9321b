#!/usr/bin/env python
"""Wall-clock micro-benchmark for the plan cache (PR 2) + exec engine (PR 3).

Measures host wall time — not simulated device time — for the two hot
paths the cache targets, cold (first launch of each structure pays the
full Stage-1/schedule/trace/cost pipeline) versus warm (every structure
replayed from cache, only numerics run):

* a GCN training fit (the Fig-5/6/7 loop: identical forward/backward
  launch structures every epoch);
* a Fig-4-style SpMM sweep repeated back-to-back (a figure regeneration
  run revisits each (kernel, dataset, F) point).

``--workers 1,2,4`` switches to the execution-engine sweep (PR 3): the
same two paths run once per worker count through
:mod:`repro.exec`, asserting that outputs, losses and simulated times
are bit-identical at every count and reporting the wall-clock speedup
of the parallel configurations.  On a single-core host the parallel
runs cannot beat serial (the report records ``cpus`` so the CI gate
scales its expectation to the runner).

Writes ``BENCH_pr2.json`` (or ``BENCH_pr3.json`` with ``--workers``)
with the timings, speedups and cache/engine counters, plus a
``metrics.json`` snapshot of the ``repro.obs`` registry.

Usage::

    PYTHONPATH=src python scripts/bench_wallclock.py --quick
    PYTHONPATH=src python scripts/bench_wallclock.py --check   # CI gate
    PYTHONPATH=src python scripts/bench_wallclock.py --workers 1,2,4 --check
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


def _fit_for_workers(dataset_key: str, epochs: int, feature_length: int,
                     hidden: int = 16) -> dict:
    """One full GCN fit; returns wall time plus the exact training record."""
    from repro.core import clear_plan_cache, clear_tune_cache
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
    t0 = time.perf_counter()
    result = trainer.fit(epochs)
    wall_s = time.perf_counter() - t0
    return {
        "wall_s": wall_s,
        "losses": [r.loss for r in result.history],
        "sim_us": [r.sim_us for r in result.history],
        "test_acc": result.test_acc,
    }


def _sweep_for_workers(dataset_key: str, feature_lengths: tuple[int, ...],
                       kernels: tuple[str, ...]) -> dict:
    """One Fig-4-style sweep through the engine's concurrent point map."""
    from repro.bench.harness import sweep_points, time_spmm
    from repro.core import clear_plan_cache

    clear_plan_cache()
    points = [(k, f) for k in kernels for f in feature_lengths]

    def one_pass() -> dict[str, float | None]:
        times = sweep_points(
            lambda p: time_spmm(p[0], dataset_key, p[1]),
            points, label="bench.sweep.wallclock",
        )
        return {f"{k}/F{f}": t for (k, f), t in zip(points, times)}

    t0 = time.perf_counter()
    cold = one_pass()
    cold_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm = one_pass()
    warm_s = time.perf_counter() - t0
    return {"cold_pass_s": cold_s, "warm_pass_s": warm_s,
            "sim_us": cold, "warm_matches_cold": cold == warm}


def _bench_workers(worker_counts: list[int], *, quick: bool) -> dict:
    """The PR 3 sweep: identical work at each worker count, timed."""
    import os

    import numpy as np

    from repro.exec import exec_workers, get_engine
    from repro.sparse import load_dataset

    dataset_key = "G0" if quick else "G2"
    epochs = 6 if quick else 10
    kernels = ("gnnone", "dgl") if quick else ("gnnone", "dgl", "cusparse", "ge-spmm")
    dims = (16, 32) if quick else (6, 16, 32, 64)

    # Direct engine equality on the benchmark dataset: serial output is
    # the reference every parallel worker count must match bit-for-bit.
    coo = load_dataset(dataset_key).coo
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(coo.nnz)
    X = rng.standard_normal((coo.num_cols, 32))
    Xr = rng.standard_normal((coo.num_rows, 32))
    spmm_ref = get_engine().spmm(coo, vals, X)
    sddmm_ref = get_engine().sddmm(coo, Xr, X)

    runs = {}
    for w in worker_counts:
        with exec_workers(w, min_parallel_nnz=0):
            outputs_identical = bool(
                np.array_equal(get_engine().spmm(coo, vals, X), spmm_ref)
                and np.array_equal(get_engine().sddmm(coo, Xr, X), sddmm_ref)
            )
            fit = _fit_for_workers(dataset_key, epochs=epochs, feature_length=32,
                                   hidden=8)
            sweep = _sweep_for_workers(dataset_key, dims, kernels)
        runs[str(w)] = {
            "workers": w,
            "outputs_identical_to_serial": outputs_identical,
            "gcn_fit": fit,
            "fig4_sweep": sweep,
        }

    base = runs[str(worker_counts[0])]
    for w in worker_counts[1:]:
        run = runs[str(w)]
        run["losses_identical"] = run["gcn_fit"]["losses"] == base["gcn_fit"]["losses"]
        run["sim_us_identical"] = (
            run["gcn_fit"]["sim_us"] == base["gcn_fit"]["sim_us"]
            and run["fig4_sweep"]["sim_us"] == base["fig4_sweep"]["sim_us"]
        )
        run["fit_speedup"] = base["gcn_fit"]["wall_s"] / run["gcn_fit"]["wall_s"]
        run["sweep_speedup"] = (
            base["fig4_sweep"]["warm_pass_s"] / run["fig4_sweep"]["warm_pass_s"]
        )
    return {
        "dataset": dataset_key,
        "worker_counts": worker_counts,
        "cpus": os.cpu_count(),
        "runs": runs,
    }


def _check_workers(report: dict) -> list[str]:
    """CI assertions for the workers sweep, scaled to the runner's cores."""
    problems = []
    counts = report["worker_counts"]
    for w in counts:
        run = report["runs"][str(w)]
        if not run["outputs_identical_to_serial"]:
            problems.append(f"workers={w}: engine outputs differ from serial")
        if w != counts[0]:
            if not run["losses_identical"]:
                problems.append(f"workers={w}: training losses differ from serial")
            if not run["sim_us_identical"]:
                problems.append(f"workers={w}: simulated times differ from serial")
    cpus = report["cpus"] or 1
    top = str(max(counts))
    if len(counts) > 1 and cpus >= 2:
        # Parallel speedup needs parallel hardware: demand the paper-style
        # 1.5x only when the runner has >= 4 cores to run 4 workers on.
        floor = 1.5 if cpus >= 4 else 1.05
        speedup = max(report["runs"][top]["fit_speedup"],
                      report["runs"][top]["sweep_speedup"])
        if speedup < floor:
            problems.append(
                f"workers={top}: best speedup {speedup:.2f}x < {floor}x "
                f"({cpus} cpus)"
            )
    return problems


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
    parser.add_argument("--workers", default=None,
                        help="comma-separated worker counts (e.g. 1,2,4): run "
                             "the execution-engine sweep instead of the "
                             "plan-cache one (writes BENCH_pr3.json)")
    args = parser.parse_args(argv)

    from repro import obs

    obs.reset_metrics()

    if args.workers:
        counts = [int(w) for w in args.workers.split(",") if w.strip()]
        out = "BENCH_pr3.json" if args.out == "BENCH_pr2.json" else args.out
        report = {
            "benchmark": "execution-engine wall-clock (PR 3)",
            "quick": args.quick,
            **_bench_workers(counts, quick=args.quick),
        }
        Path(out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        obs.write_metrics_json(args.metrics)
        if args.trajectory:
            top = str(max(counts))
            _append_trajectory(args.trajectory, {
                "benchmark": "exec-engine",
                "timestamp": time.time(),
                "quick": args.quick,
                "cpus": report["cpus"],
                "worker_counts": counts,
                "fit_speedup": report["runs"][top].get("fit_speedup"),
                "sweep_speedup": report["runs"][top].get("sweep_speedup"),
                "fit_wall_s": report["runs"][top]["gcn_fit"]["wall_s"],
            })
        for w in counts:
            run = report["runs"][str(w)]
            extra = ""
            if w != counts[0]:
                extra = (f"  fit {run['fit_speedup']:.2f}x, "
                         f"sweep {run['sweep_speedup']:.2f}x vs serial")
            print(f"workers={w}: fit {run['gcn_fit']['wall_s'] * 1e3:8.1f} ms, "
                  f"warm sweep {run['fig4_sweep']['warm_pass_s'] * 1e3:8.1f} ms, "
                  f"outputs identical: {run['outputs_identical_to_serial']}{extra}")
        print(f"cpus={report['cpus']}; wrote {out} and {args.metrics}")
        if args.check:
            problems = _check_workers(report)
            if problems:
                print("CHECK FAILED: " + "; ".join(problems), file=sys.stderr)
                return 1
            print("CHECK OK")
        return 0

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
