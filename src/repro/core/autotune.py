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
computes no operand, and the whole :class:`TuneResult` is memoized per
``(structure_token, kind, feature_length, device)``.  The memo is an
RLock-guarded LRU bounded by :data:`TUNE_CACHE_CAP` entries so long
multi-graph runs cannot grow it without bound; hits
and misses surface as ``plancache.tune.hit``/``miss`` counters and as
``tune.cache_hit``/``tune.cache_miss`` trace events for ``obs
summary``.  Trials additionally share the structural plan cache
(:mod:`repro.core.plancache`), so a trial config that some earlier
kernel call already simulated costs a dictionary lookup.
"""

from __future__ import annotations

import numbers
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro import obs
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

#: memo cap.  One entry per (structure, kind, F, device) — 256
#: covers every seed-graph sweep in this repo many times over.
TUNE_CACHE_CAP = 256

#: (structure_token, kind, F, device) -> TuneResult, LRU-ordered
#: (oldest first), guarded by _LOCK.
_TUNE_CACHE: "OrderedDict[tuple, TuneResult]" = OrderedDict()
_LOCK = threading.RLock()


def clear_tune_cache() -> None:
    """Drop memoized :class:`TuneResult` objects (tests, debugging)."""
    with _LOCK:
        _TUNE_CACHE.clear()


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
    drawn, since trial times are value-independent.  The result is
    memoized per structure token.  Raises
    :class:`~repro.errors.ConfigError` for an unknown ``kind`` or a
    ``feature_length`` that is not a positive integer.
    """
    check_in(kind, "kind", ("spmm", "sddmm"))
    if not isinstance(feature_length, numbers.Integral) or feature_length < 1:
        raise ConfigError(
            f"feature_length must be a positive integer, got {feature_length!r}"
        )
    dev = get_device(device)
    feature_length = int(feature_length)
    memo_key = (A.structure_token, kind, feature_length, dev)
    with _LOCK:
        hit = _TUNE_CACHE.get(memo_key)
        if hit is not None:
            _TUNE_CACHE.move_to_end(memo_key)
    if hit is not None:
        obs.event("tune.cache_hit", kind=kind)
        return hit
    obs.event("tune.cache_miss", kind=kind)

    result = _exhaustive(A, feature_length, kind, dev)
    with _LOCK:
        _TUNE_CACHE[memo_key] = result
        _TUNE_CACHE.move_to_end(memo_key)
        while len(_TUNE_CACHE) > TUNE_CACHE_CAP:
            _TUNE_CACHE.popitem(last=False)
    return result


def _exhaustive(
    A: COOMatrix,
    feature_length: int,
    kind: str,
    dev: DeviceSpec,
) -> TuneResult:
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
