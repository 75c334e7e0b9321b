"""Runs one workload: repeated set-ups, the timed phase(s), the checks.

A workload object provides:

* ``setups`` -- how many set-ups to time (their median is ``setup_s``);
  the last set-up's state is what the timed phase runs on;
* ``setup()`` -- one complete set-up;
* ``op(slot, probe)`` -- one operation of slot ``a`` or ``b``, timed with
  ``probe.op(slot)`` and checked into the shared :class:`Outcome`;
* ``loaded_share`` / ``loaded(seconds, widths)`` -- an optional second
  phase (``serve``'s closed loop; ``widths`` counts launch columns in the
  traced run, else ``None``);
* ``finish()`` -- run-level checks; ``end_to_end(probe)`` and
  ``layer_extras()`` -- the workload's own metrics; ``close()``.

End-to-end metrics come from a run with no probe installed; a workload
with a loaded phase alternates it with the interleaved phase in
``ROUNDS`` rounds, so that both sample the host over the whole run
rather than one half each.  The traced run splits the interleaved
phase: an untraced first half (the baseline for ``trace_overhead_pct``
and the source of the tails), then a half with the probe installed; the
loaded phase runs untraced after both.
"""

from __future__ import annotations

import gc
import resource
import time

from e2ebench import metrics, stats
from e2ebench.layers import plancache_snapshot, program_targets, width_probe
from e2ebench.probe import Probe

#: unloaded/loaded rounds of an untraced run with a loaded phase
ROUNDS = 4


class Outcome:
    """Operations attempted and failed; a failed check is a failed op."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok


def interleave(work, probe: Probe, seconds: float) -> None:
    """Alternate ``a`` and ``b`` ops for ``seconds`` (at least one pair)."""
    start = time.perf_counter()
    while True:
        for slot in metrics.SLOTS:
            work.op(slot, probe)
        if time.perf_counter() - start >= seconds:
            return


def _setups(work, trace: bool) -> tuple[list[float], Probe]:
    probe = Probe(program_targets() if trace else [], plancache_snapshot)
    times = []
    for _ in range(work.setups):
        gc.collect()
        with probe.installed_for(), probe.op("setup") as op:
            work.setup()
        times.append(op.seconds)
    return times, probe


def _loaded(work, seconds: float, widths: Probe | None = None) -> None:
    """The workload's loaded phase; ``widths`` (traced run only) counts the
    columns each launch carries."""
    gc.collect()
    if widths is None:
        work.loaded(seconds, None)
        return
    with widths.installed_for():
        widths.slot = "loaded"
        try:
            work.loaded(seconds, widths)
        finally:
            widths.slot = None


def run(work, seconds: float, trace: bool) -> dict[str, float]:
    """Measure ``work`` and return the metric values for the result line."""
    setup_times, setup_probe = _setups(work, trace)
    share = work.loaded_share
    unloaded = seconds * (1.0 - share)
    if not trace:
        probe = Probe(snapshot=plancache_snapshot)
        rounds = ROUNDS if share else 1
        for _ in range(rounds):
            gc.collect()
            interleave(work, probe, unloaded / rounds)
            if share:
                _loaded(work, seconds * share / rounds)
        gc.collect()
        work.finish()
        values = work.end_to_end(probe)
        values["setup_s"] = stats.median(setup_times)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {name: values[name] for name, _, _ in metrics.END_TO_END}

    base = Probe(snapshot=plancache_snapshot)
    gc.collect()
    interleave(work, base, unloaded / 2)
    traced = Probe(program_targets(), plancache_snapshot)
    gc.collect()
    with traced.installed_for():
        interleave(work, traced, unloaded / 2)
    if share:
        _loaded(work, seconds * share, width_probe())
    gc.collect()
    work.finish()

    values: dict[str, float] = {}
    for k in metrics.SLOTS:
        values.update(metrics.slot_layers(k, traced, [s * 1e3 for s in base.ops[k]]))
    setup = setup_probe.layer_ms("setup")
    values["setup.sparse_ms"] = setup.get("sparse", 0.0)
    values["setup.simulate_ms"] = (
        setup.get("kernels.simulate", 0.0) + setup.get("gpusim.estimate_cost", 0.0)
    )
    untraced = sum(stats.median(base.ops[k]) for k in metrics.SLOTS)
    traced_ms = sum(stats.median(traced.ops[k]) for k in metrics.SLOTS)
    values["trace_overhead_pct"] = 100.0 * (traced_ms / untraced - 1.0)
    values.update({name: 0.0 for name, _, _ in metrics.WORKLOAD_LEVEL if name not in values})
    values.update(work.layer_extras())
    return {name: values[name] for name, _, _ in metrics.per_layer_spec()}
