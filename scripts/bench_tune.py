#!/usr/bin/env python
"""Learned-autotuning benchmark + acceptance gates (PR 9).

End-to-end exercise of :mod:`repro.tune`:

1. **sweep** — run exhaustive ``core.autotune`` over the quick seed
   graphs (G3/G6/G14) x (spmm, sddmm) x F in (16, 32) under obs
   tracing; the trace's kernel spans are the training data.
2. **dataset** — export the trace through ``repro.obs.dataset`` twice,
   once per side of the deterministic hash split (train / val).
3. **train** — fit the ridge cost model (seed-pinned) and persist the
   versioned artifact.
4. **predict** — MAE / MAPE / Spearman rank-correlation on both splits,
   plus the top-k hit rate (is the exhaustive winner inside the model's
   top-3 shortlist?) per sweep point.
5. **search** — model-pruned search vs exhaustive on every sweep point:
   per-point regret, trials avoided, and cold-cache wall time both ways.

Writes ``BENCH_pr9.json``.  ``--check`` turns the PR's acceptance
criteria into exit status: val rank-correlation >= 0.8, regret <= 5% on
every point with at most 3 simulated candidates, and a positive
trials-avoided yield.

Usage::

    PYTHONPATH=src python scripts/bench_tune.py
    PYTHONPATH=src python scripts/bench_tune.py --check      # CI gate
    PYTHONPATH=src python scripts/bench_tune.py --keep-artifacts -o out/
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

#: acceptance gates (ISSUE 9)
MAX_REGRET = 0.05
MIN_RANK_CORRELATION = 0.8
MAX_TRIALS_SIMULATED = 3

#: the quick sweep: every seed graph x kind x F point the gates cover
KINDS = ("spmm", "sddmm")
FEATURE_LENGTHS = (16, 32)


def _clear_caches() -> None:
    from repro.core.autotune import clear_tune_cache
    from repro.core.plancache import clear_plan_cache

    clear_plan_cache()
    clear_tune_cache()


def _sweep_points():
    from repro.sparse.datasets import QUICK_KEYS

    for key in QUICK_KEYS:
        for kind in KINDS:
            for f in FEATURE_LENGTHS:
                yield key, kind, f


def run_sweep(trace_path: Path) -> float:
    """Exhaustive autotune over the quick sweep, traced; returns wall s."""
    from repro import obs
    from repro.core.autotune import autotune
    from repro.sparse.datasets import load_dataset

    t0 = time.perf_counter()
    with obs.trace_to(trace_path):
        for key, kind, f in _sweep_points():
            _clear_caches()  # cold per point: every candidate simulates
            autotune(load_dataset(key).coo, f, kind, strategy="exact")
    return time.perf_counter() - t0


def export_splits(trace_path: Path, out_dir: Path) -> dict:
    from repro.obs.dataset import export_dataset

    train_path = out_dir / "tune_train.jsonl"
    val_path = out_dir / "tune_val.jsonl"
    n_train, _ = export_dataset([trace_path], train_path, split="train")
    n_val, _ = export_dataset([trace_path], val_path, split="val")
    return {
        "train_path": train_path, "val_path": val_path,
        "n_train": n_train, "n_val": n_val,
    }


def train_and_eval(splits: dict, model_path: Path, *, seed: int):
    """(model, report) from the exported splits."""
    from repro.tune.model import evaluate_model, train_model

    train_records = _read_records(splits["train_path"])
    val_records = _read_records(splits["val_path"])
    model = train_model(train_records, seed=seed)
    model.save(model_path)
    out = {
        "seed": seed,
        "artifact": str(model_path),
        "n_train": len(train_records),
        "n_val": len(val_records),
        "train": evaluate_model(model, train_records).to_dict(),
    }
    if val_records:
        out["val"] = evaluate_model(model, val_records).to_dict()
    return model, out


def _read_records(path: Path) -> list[dict]:
    from repro.tune.__main__ import read_records

    return read_records(path)


def bench_search(model) -> dict:
    """Pruned vs exhaustive on every sweep point (cold caches each way)."""
    from repro.core.autotune import autotune
    from repro.sparse.datasets import load_dataset
    from repro.tune.search import (
        DEFAULT_TOP_K,
        learned_autotune,
        measure_regret,
        rank_candidates,
    )

    points = []
    topk_hits = 0
    wall_exhaustive = wall_learned = 0.0
    trials_avoided = trials_total = 0
    for key, kind, f in _sweep_points():
        A = load_dataset(key).coo

        _clear_caches()
        t0 = time.perf_counter()
        exhaustive = autotune(A, f, kind, strategy="exact")
        wall_exhaustive += time.perf_counter() - t0

        _clear_caches()
        t0 = time.perf_counter()
        pruned = learned_autotune(A, f, kind, model=model)
        wall_learned += time.perf_counter() - t0

        # regret from the two searches just run (same seeds/device)
        best_key = min(exhaustive.trials, key=lambda k: exhaustive.trials[k])
        best_us = exhaustive.trials[best_key]
        regret = max(0.0, (pruned.time_us - best_us) / best_us)
        ranked = rank_candidates(A, f, kind, model)
        shortlist = [k for k, _ in ranked[:DEFAULT_TOP_K]]
        hit = best_key in shortlist
        topk_hits += hit
        trials_avoided += pruned.trials_avoided
        trials_total += pruned.candidates
        points.append({
            "dataset": key, "kind": kind, "f": f,
            "regret": regret,
            "chosen": list(min(pruned.trials, key=lambda k: pruned.trials[k])),
            "best": list(best_key),
            "chosen_us": pruned.time_us,
            "best_us": best_us,
            "trials_simulated": len(pruned.trials),
            "trials_avoided": pruned.trials_avoided,
            "top_k_hit": bool(hit),
        })
    n = len(points)
    return {
        "top_k": DEFAULT_TOP_K,
        "points": points,
        "max_regret": max(p["regret"] for p in points),
        "mean_regret": sum(p["regret"] for p in points) / n,
        "top_k_hit_rate": topk_hits / n,
        "trials_avoided": trials_avoided,
        "trials_total": trials_total,
        "wall_exhaustive_s": wall_exhaustive,
        "wall_learned_s": wall_learned,
        "wall_speedup": wall_exhaustive / max(wall_learned, 1e-9),
    }


def check_gates(report: dict) -> list[str]:
    problems = []
    val = report["model"].get("val")
    if not val:
        problems.append("no held-out val records — split produced an empty side")
    elif val["rank_correlation"] < MIN_RANK_CORRELATION:
        problems.append(
            f"val rank-correlation {val['rank_correlation']:.3f} "
            f"< {MIN_RANK_CORRELATION}"
        )
    search = report["search"]
    for p in search["points"]:
        if p["regret"] > MAX_REGRET:
            problems.append(
                f"{p['dataset']}/{p['kind']}/F{p['f']}: regret "
                f"{p['regret']:.3f} > {MAX_REGRET}"
            )
        if p["trials_simulated"] > MAX_TRIALS_SIMULATED:
            problems.append(
                f"{p['dataset']}/{p['kind']}/F{p['f']}: simulated "
                f"{p['trials_simulated']} > {MAX_TRIALS_SIMULATED} candidates"
            )
    if search["trials_avoided"] <= 0:
        problems.append("pruned search avoided zero trials")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_pr9.json",
                        help="result JSON path (default: BENCH_pr9.json)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero unless the acceptance gates hold")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--artifacts", default=None,
                        help="directory to keep trace/datasets/model in "
                             "(default: a temp dir, model discarded)")
    args = parser.parse_args(argv)

    import os

    work = Path(args.artifacts) if args.artifacts else Path(tempfile.mkdtemp())
    work.mkdir(parents=True, exist_ok=True)
    trace = work / "tune_sweep_trace.jsonl"
    model_path = work / "tune_model.npz"

    print("sweep: exhaustive autotune over the quick seed graphs ...")
    sweep_wall = run_sweep(trace)
    splits = export_splits(trace, work)
    print(f"dataset: {splits['n_train']} train / {splits['n_val']} val "
          f"record(s) ({sweep_wall:.1f} s sweep)")
    model, model_report = train_and_eval(splits, model_path, seed=args.seed)
    print(f"model: train corr {model_report['train']['rank_correlation']:.3f}"
          + (f", val corr {model_report['val']['rank_correlation']:.3f}"
             if "val" in model_report else ", no val records"))
    search = bench_search(model)
    print(f"search: max regret {search['max_regret']:.3f}, "
          f"top-{search['top_k']} hit rate {search['top_k_hit_rate']:.0%}, "
          f"{search['trials_avoided']}/{search['trials_total']} trials avoided, "
          f"wall {search['wall_exhaustive_s']:.1f} s -> "
          f"{search['wall_learned_s']:.1f} s "
          f"({search['wall_speedup']:.2f}x)")

    report = {
        "benchmark": "learned cost model + pruned autotune (PR 9)",
        "cpus": os.cpu_count(),
        "sweep_wall_s": sweep_wall,
        "dataset": {"n_train": splits["n_train"], "n_val": splits["n_val"]},
        "model": model_report,
        "search": search,
        "gates": {
            "max_regret": MAX_REGRET,
            "min_rank_correlation": MIN_RANK_CORRELATION,
            "max_trials_simulated": MAX_TRIALS_SIMULATED,
        },
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n",
                              encoding="utf-8")
    if args.check:
        problems = check_gates(report)
        if problems:
            print("ACCEPTANCE GATE FAILURES:")
            for p in problems:
                print(f"  - {p}")
            return 1
        print("all acceptance gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
