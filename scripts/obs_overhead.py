#!/usr/bin/env python
"""Overhead micro-benchmark for the obs layer's no-op fast path.

The instrumentation contract is "off means free": with no sink
installed (the production default), every ``obs.span(...)`` falls
through a couple of attribute checks, and with ``REPRO_OBS=off`` even
those checks short-circuit on one cached module-level bool.

This script measures that claim: it runs the warm Fig-4 quick sweep
(plan cache hot, and a sweep point only prices its launch, so span
crossings are a large share of each point) with the obs layer enabled
versus killed, and reports the
overhead as the median, over interleaved on/off pairs, of each pair's
on/off time ratio.  A pair's two samples run back to back, so host
drift cancels inside the ratio, and the median ignores the odd pair a
burst of noise lands on.

Usage::

    PYTHONPATH=src python scripts/obs_overhead.py
    PYTHONPATH=src python scripts/obs_overhead.py --check   # CI: <2%
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

DEFAULT_THRESHOLD_PCT = 2.0
#: on/off pairs; each takes under 1 ms, and on a shared 2-vCPU host the
#: median of 15 still swung from -1% to +6% between runs
DEFAULT_REPEATS = 101


def _sample(inner: int, dataset_key: str, feature_lengths: tuple[int, ...],
            kernels: tuple[str, ...]) -> float:
    """One timed sample: ``inner`` back-to-back warm sweeps.

    A single warm quick sweep runs in ~35 us — below what perf_counter
    sampling can compare at the percent level — so each sample times a
    batch.
    """
    from repro.bench.harness import time_kernel

    t0 = time.perf_counter()
    for _ in range(inner):
        for kernel in kernels:
            for f in feature_lengths:
                time_kernel("spmm", kernel, dataset_key, f)
    return time.perf_counter() - t0


def measure(repeats: int = DEFAULT_REPEATS, inner: int = 10) -> dict:
    """Warm-sweep seconds with obs enabled vs killed, in interleaved pairs."""
    import scipy.sparse  # noqa: F401 -- pre-pay the lazy import outside the timers

    from repro.core import clear_plan_cache
    from repro.obs.spans import set_obs_enabled

    dataset_key, dims, kernels = "G0", (16, 32), ("gnnone", "dgl")

    clear_plan_cache()
    _sample(1, dataset_key, dims, kernels)  # warm the plan cache once

    on_s: list[float] = []
    off_s: list[float] = []
    try:
        # One pair per repeat; which mode runs first alternates, so
        # neither mode always gets the warmer or the colder slot.
        for i in range(repeats):
            seconds = {}
            for enabled in ((True, False) if i % 2 == 0 else (False, True)):
                set_obs_enabled(enabled)
                seconds[enabled] = _sample(inner, dataset_key, dims, kernels)
            on_s.append(seconds[True])
            off_s.append(seconds[False])
    finally:
        set_obs_enabled(None)  # restore the env-switch default
    ratio = statistics.median(on / off for on, off in zip(on_s, off_s))
    return {
        "repeats": repeats,
        "inner": inner,
        "sweep_points": len(dims) * len(kernels),
        "on_median_s": statistics.median(on_s),
        "off_median_s": statistics.median(off_s),
        "overhead_pct": (ratio - 1.0) * 100.0,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                        help="interleaved on/off sample pairs")
    parser.add_argument("--inner", type=int, default=10,
                        help="warm sweeps batched into one timed sample")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD_PCT,
                        help="max tolerated overhead percent (with --check)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if overhead exceeds the threshold")
    args = parser.parse_args(argv)

    report = measure(repeats=args.repeats, inner=args.inner)
    print(f"warm fig04 quick sweep ({report['sweep_points']} points x "
          f"{report['inner']} sweeps/sample, {report['repeats']} interleaved pairs):")
    print(f"  obs enabled : {report['on_median_s'] * 1e3:8.2f} ms (median)")
    print(f"  REPRO_OBS=off: {report['off_median_s'] * 1e3:8.2f} ms (median)")
    print(f"  overhead    : {report['overhead_pct']:+.2f}% (median of pair ratios)")
    if args.check and report["overhead_pct"] > args.threshold:
        print(f"CHECK FAILED: obs overhead {report['overhead_pct']:.2f}% > "
              f"{args.threshold}%", file=sys.stderr)
        return 1
    if args.check:
        print("CHECK OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
