"""Configuration auto-tuning for GNNOne kernels.

CACHE_SIZE is a *hardware* parameter (Section 4.1.1) — the paper picks
128 on the A100.  This module searches the small configuration space
(:data:`CACHE_SIZES` x :data:`SCHEDULES`, 8 candidates) exhaustively
and returns the best config per (graph, feature length, kernel kind),
which confirms the paper's choice (128, Consecutive) is in fact
optimal on the default device.

Tuning is structural like the cost model itself: the trial times
depend on the topology, never on operand values, so every trial is a
:meth:`~repro.kernels.base._Kernel.simulate` call that draws and
computes no operand.  Those calls go through the structural plan cache
(:mod:`repro.core.plancache`), so a repeat search on the same
(structure, kind, feature length, device) is eight cache hits and no
simulation; the tuner keeps no memo of its own.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.gpusim.device import DeviceSpec, get_device
from repro.kernels.gnnone import (
    CONSECUTIVE,
    ROUND_ROBIN,
    GnnOneConfig,
    GnnOneSDDMM,
    GnnOneSpMM,
)
from repro.sparse.coo import COOMatrix
from repro.utils.validation import check_in

#: the searched space: every cache size under every schedule
CACHE_SIZES = (32, 64, 128, 256)
SCHEDULES = (CONSECUTIVE, ROUND_ROBIN)


@dataclass(frozen=True)
class TuneResult:
    config: GnnOneConfig
    time_us: float
    #: (cache_size, schedule) -> simulated microseconds, every candidate
    trials: dict


def autotune(
    A: COOMatrix,
    feature_length: int,
    kind: str = "spmm",
    *,
    device: DeviceSpec | str | None = None,
) -> TuneResult:
    """Pick the fastest GNNOne config for ``A`` at ``feature_length``.

    Every (cache size, schedule) candidate is simulated; no operand is
    drawn, since trial times are value-independent.  Raises
    :class:`~repro.errors.ConfigError` for an unknown ``kind`` or a
    ``feature_length`` that is not a positive integer (``True`` is
    refused although ``bool`` is an ``Integral``).
    """
    check_in(kind, "kind", ("spmm", "sddmm"))
    if (
        isinstance(feature_length, bool)
        or not isinstance(feature_length, numbers.Integral)
        or feature_length < 1
    ):
        raise ConfigError(
            f"feature_length must be a positive integer, got {feature_length!r}"
        )
    dev = get_device(device)
    feature_length = int(feature_length)
    kernel = GnnOneSpMM if kind == "spmm" else GnnOneSDDMM
    trials: dict[tuple[int, str], float] = {}
    for cache in CACHE_SIZES:
        for sched in SCHEDULES:
            cfg = GnnOneConfig(cache_size=cache, schedule=sched)
            trials[(cache, sched)] = kernel(cfg).simulate(A, feature_length, device=dev).time_us
    # min() keeps the first-listed candidate on a tie
    (cache, sched), best = min(trials.items(), key=lambda kv: kv[1])
    config = GnnOneConfig(cache_size=cache, schedule=sched)
    return TuneResult(config=config, time_us=best, trials=trials)
