"""Chaos gate: a faulted parallel run must match the fault-free serial run.

Runs the fig04 quick sweep and a 3-epoch GCN training twice —

* baseline: injection off, serial engine (1 worker);
* chaos: ``chaos`` fault profile (seed ``REPRO_FAULT_SEED``, default
  1337), 4 workers, training interrupted after 2 epochs and resumed
  from its checkpoint —

and asserts the chaos run is **bit-identical**: every sweep row equal,
every epoch loss equal, same test accuracy.  It then asserts the chaos
run actually exercised the recovery paths (>=1 shard retry, >=1
degrade-to-serial, >=1 checkpoint restore), so a regression that
silently disables injection fails the gate too.

The chaos phase streams an obs trace to ``--trace`` (default
``chaos_trace.jsonl``) for ``python -m repro.obs summary``, and the
deep profiler renders that trace's per-kernel breakdown and worker
timeline to ``--profile`` (default ``chaos_profile.txt``).

Usage::

    PYTHONPATH=src python scripts/chaos_check.py [--trace chaos_trace.jsonl]
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import tempfile

from repro import obs, settings
from repro.bench.harness import run_experiment
from repro.core import clear_plan_cache
from repro.errors import ConfigError
from repro.exec import exec_workers
from repro.nn import GCN, GraphData, Trainer, synthesize
from repro.resilience import fault_profile, no_faults
from repro.sparse.datasets import load_dataset

TRAIN_EPOCHS = 3
INTERRUPT_AFTER = 2
CHAOS_WORKERS = 4
#: fault seed when ``REPRO_FAULT_SEED`` is unset
CHAOS_SEED = 1337


def make_trainer() -> Trainer:
    dataset = load_dataset("G3")
    data = synthesize(dataset, feature_length=16, seed=11)
    model = GCN(data.feature_length, 16, data.num_classes, seed=11)
    return Trainer(model, GraphData(dataset.coo), data, lr=0.02)


def run_phase(checkpoint_dir: str | None = None):
    """One sweep + one training run under whatever profile is active."""
    clear_plan_cache()
    sweep = run_experiment("fig04", quick=True)
    if checkpoint_dir is None:
        train = make_trainer().fit(TRAIN_EPOCHS)
    else:
        # Interrupt after 2 epochs, then resume with a *fresh* trainer:
        # the checkpoint must carry every bit of state that matters.
        make_trainer().fit(INTERRUPT_AFTER, checkpoint_dir=checkpoint_dir)
        train = make_trainer().fit(
            TRAIN_EPOCHS, checkpoint_dir=checkpoint_dir, resume=True
        )
    return sweep, train


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", default="chaos_trace.jsonl",
                        help="obs trace file for the chaos phase")
    parser.add_argument("--profile", default="chaos_profile.txt",
                        help="deep-profile report rendered from the chaos "
                             "trace ('' disables)")
    args = parser.parse_args(argv)
    try:
        env_seed = settings.get().fault_seed
    except ConfigError as e:
        parser.error(str(e))
    seed = CHAOS_SEED if env_seed is None else env_seed

    with no_faults(), exec_workers(1):
        base_sweep, base_train = run_phase()

    metrics = obs.get_metrics()
    before = {
        name: metrics.counter(name).value
        for name in ("resilience.fault_injected", "resilience.retry",
                     "resilience.degraded", "resilience.checkpoint_restore")
    }
    with contextlib.ExitStack() as stack:
        stack.enter_context(obs.trace_to(args.trace))
        stack.enter_context(fault_profile("chaos", seed=seed))
        stack.enter_context(exec_workers(CHAOS_WORKERS, min_parallel_nnz=1))
        tmp = stack.enter_context(tempfile.TemporaryDirectory(prefix="chaos-ckpt-"))
        chaos_sweep, chaos_train = run_phase(checkpoint_dir=tmp)
    fired = {name: metrics.counter(name).value - v for name, v in before.items()}

    failures: list[str] = []
    if chaos_sweep.rows != base_sweep.rows:
        bad = sum(a != b for a, b in zip(base_sweep.rows, chaos_sweep.rows))
        failures.append(
            f"fig04 sweep diverged under chaos: {bad} row(s) differ "
            f"(and {len(chaos_sweep.failures())} error row(s))"
        )
    base_losses = [r.loss for r in base_train.history]
    chaos_losses = [r.loss for r in chaos_train.history]
    if chaos_losses != base_losses:
        failures.append(
            f"training trajectory diverged: {base_losses} vs {chaos_losses}"
        )
    if chaos_train.test_acc != base_train.test_acc:
        failures.append(
            f"test accuracy diverged: {base_train.test_acc} "
            f"vs {chaos_train.test_acc}"
        )
    for name in ("resilience.retry", "resilience.degraded",
                 "resilience.checkpoint_restore"):
        if fired[name] < 1:
            failures.append(f"chaos run never exercised {name} (seed {seed})")

    if args.profile:
        # The same trace the summary reads also feeds the deep profiler:
        # the chaos run's per-kernel breakdown and worker timeline land
        # next to the trace as a build artifact.
        from pathlib import Path

        from repro.obs.profile import (
            format_profile_report,
            format_timeline,
            profile_trace,
        )

        records, dropped = obs.read_trace_lenient(args.trace)
        report = format_profile_report(profile_trace(records))
        timeline = format_timeline(records)
        Path(args.profile).write_text(
            report + "\n\n" + timeline + "\n", encoding="utf-8"
        )
        if dropped:
            print(f"warning: {dropped} corrupt trace line(s) skipped",
                  file=sys.stderr)

    print(f"chaos check (seed {seed}, {CHAOS_WORKERS} workers):")
    for name, count in fired.items():
        print(f"  {name}: {count:.0f}")
    print(f"  sweep rows compared: {len(base_sweep.rows)}")
    print(f"  epoch losses compared: {len(base_losses)}")
    print(f"  trace: {args.trace}")
    if args.profile:
        print(f"  profile: {args.profile}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("chaos run is bit-identical to the fault-free serial baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
