"""Chaos gate: a faulted run must match the fault-free run bit for bit.

Runs the fig04 quick sweep (a cold pass, then a warm pass that replays
every launch plan from the plan cache) and a 3-epoch GCN training
twice —

* baseline: injection off;
* chaos: ``chaos`` fault profile (seed ``REPRO_FAULT_SEED``, default
  1337), training interrupted after 2 epochs and resumed from its
  checkpoint —

and asserts the chaos run is **bit-identical**: every sweep row of both
passes equal, every epoch loss equal, same test accuracy.  It then
asserts the chaos run actually exercised the recovery paths (>=1
plan-cache invalidation, >=1 checkpoint restore, counted from the
trace's ``resilience.*`` events), so a regression that silently
disables injection fails the gate too.  The warm sweep pass is
what reaches ``plancache.poison``: the site is consulted on every cache
hit, and a cold pass has none.

The chaos phase streams an obs trace to ``--trace`` (default
``chaos_trace.jsonl``) for ``python -m repro.obs summary``, and the
deep profiler renders that trace's per-kernel breakdown to
``--profile`` (default ``chaos_profile.txt``).

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
from repro.nn import GCN, GraphData, Trainer, synthesize
from repro.resilience import fault_profile, no_faults
from repro.sparse.datasets import load_dataset

TRAIN_EPOCHS = 3
INTERRUPT_AFTER = 2
#: sweep passes per phase: a cold one, then a warm plan-cache replay
SWEEP_PASSES = 2
#: fault seed when ``REPRO_FAULT_SEED`` is unset
CHAOS_SEED = 1337


def make_trainer() -> Trainer:
    dataset = load_dataset("G3")
    data = synthesize(dataset, feature_length=16, seed=11)
    model = GCN(data.feature_length, 16, data.num_classes, seed=11)
    return Trainer(model, GraphData(dataset.coo), data, lr=0.02)


def run_phase(checkpoint_dir: str | None = None):
    """Cold + warm sweeps and one training run under the active profile."""
    clear_plan_cache()
    sweeps = [run_experiment("fig04", quick=True) for _ in range(SWEEP_PASSES)]
    if checkpoint_dir is None:
        train = make_trainer().fit(TRAIN_EPOCHS)
    else:
        # Interrupt after 2 epochs, then resume with a *fresh* trainer:
        # the checkpoint must carry every bit of state that matters.
        make_trainer().fit(INTERRUPT_AFTER, checkpoint_dir=checkpoint_dir)
        train = make_trainer().fit(
            TRAIN_EPOCHS, checkpoint_dir=checkpoint_dir, resume=True
        )
    return sweeps, train


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

    with no_faults():
        base_sweeps, base_train = run_phase()

    with contextlib.ExitStack() as stack:
        stack.enter_context(obs.trace_to(args.trace))
        stack.enter_context(fault_profile("chaos", seed=seed))
        tmp = stack.enter_context(tempfile.TemporaryDirectory(prefix="chaos-ckpt-"))
        chaos_sweeps, chaos_train = run_phase(checkpoint_dir=tmp)
    records, dropped = obs.read_trace_lenient(args.trace)
    if dropped:
        print(f"warning: {dropped} corrupt trace line(s) skipped", file=sys.stderr)
    fold = obs.fold_trace(records)
    counts = fold.resilience()
    fired = {
        name: counts[name]
        for name in ("resilience.fault_injected", "resilience.plan_invalidated",
                     "resilience.checkpoint_restore")
    }

    failures: list[str] = []
    for n, (base_sweep, chaos_sweep) in enumerate(zip(base_sweeps, chaos_sweeps)):
        if chaos_sweep.rows != base_sweep.rows:
            bad = sum(a != b for a, b in zip(base_sweep.rows, chaos_sweep.rows))
            failures.append(
                f"fig04 sweep pass {n + 1} diverged under chaos: {bad} row(s) "
                f"differ (and {len(chaos_sweep.failures())} error row(s))"
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
    for name in ("resilience.plan_invalidated", "resilience.checkpoint_restore"):
        if fired[name] < 1:
            failures.append(f"chaos run never exercised {name} (seed {seed})")

    if args.profile:
        # The same fold the summary reads also feeds the deep profiler:
        # the chaos run's per-kernel breakdown lands next to the trace
        # as a build artifact.
        from pathlib import Path

        Path(args.profile).write_text(
            obs.format_profile_report(fold) + "\n", encoding="utf-8"
        )

    print(f"chaos check (seed {seed}):")
    for name, count in fired.items():
        print(f"  {name}: {count:.0f}")
    print(f"  sweep rows compared: {sum(len(s.rows) for s in base_sweeps)}")
    print(f"  epoch losses compared: {len(base_losses)}")
    print(f"  trace: {args.trace}")
    if args.profile:
        print(f"  profile: {args.profile}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("chaos run is bit-identical to the fault-free baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
