"""Benchmark harness: one experiment per paper table/figure."""

from repro.bench.harness import (
    FEATURE_LENGTHS,
    experiment_ids,
    run_experiment,
    time_kernel,
)
from repro.bench.report import ExperimentResult, render_table

__all__ = [
    "FEATURE_LENGTHS",
    "experiment_ids",
    "run_experiment",
    "time_kernel",
    "ExperimentResult",
    "render_table",
]
