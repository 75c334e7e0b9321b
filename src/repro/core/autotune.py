"""Configuration auto-tuning for GNNOne kernels.

CACHE_SIZE is a *hardware* parameter (Section 4.1.1) — the paper picks
128 on the A100.  This module searches the small configuration space
(cache size x schedule) and returns the best config per (graph, feature
length, kernel kind).  Used by the GNN trainer so every layer's sparse
op runs its best configuration, and by tests to verify the paper's
choice (128, Consecutive) is in fact optimal on the default device.

Two strategies:

* ``exact`` (default) — simulate every candidate with the analytic
  cost model; cheap per trial, exhaustive by construction.
* ``learned`` — rank the candidate space with the learned cost model
  (:mod:`repro.tune`) and simulate only the top-k; opt-in per call
  (``strategy="learned"``) or process-wide (``REPRO_TUNE=learned``
  with ``REPRO_TUNE_MODEL`` pointing at a trained artifact).  When no
  model can be resolved the call falls back to ``exact`` and counts a
  ``tune.fallback`` — tuning never fails for lack of an artifact.

Tuning is structure-dominated like the cost model itself: the trial
times depend on the topology, not the operand values, so one operand
draw is shared by every trial config and the whole :class:`TuneResult`
is memoized per ``(structure_token, kind, feature_length, device)``
(plus the searched space and resolved strategy).  The memo is an
RLock-guarded LRU bounded by :data:`TUNE_CACHE_CAP` entries so long
multi-graph runs cannot grow it without bound; hits
and misses surface as ``plancache.tune.hit``/``miss`` counters and as
``tune.cache_hit``/``tune.cache_miss`` trace events for ``obs
summary``.  Trials additionally share the structural plan cache
(:mod:`repro.core.plancache`), so a trial config that some earlier
kernel call already simulated costs a dictionary lookup.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro import obs, settings
from repro.core import plancache
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

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (tune -> autotune)
    from repro.tune.model import CostModel

DEFAULT_CACHE_SIZES = (32, 64, 128, 256)

STRATEGIES = ("exact", "learned")

#: memo cap.  One entry per (structure, kind, F, device, space,
#: strategy) — 256 covers every seed-graph sweep in this repo many
#: times over.
TUNE_CACHE_CAP = 256

#: (structure_token, kind, F, device, cache_sizes, schedules, strategy
#: token) -> TuneResult, LRU-ordered (oldest first), guarded by _LOCK.
_TUNE_CACHE: "OrderedDict[tuple, TuneResult]" = OrderedDict()
_LOCK = threading.RLock()

#: artifact path -> (mtime_ns, CostModel), for env-resolved models
_MODEL_CACHE: dict[str, tuple[int, "CostModel"]] = {}


def clear_tune_cache() -> None:
    """Drop memoized :class:`TuneResult` objects (tests, debugging)."""
    with _LOCK:
        _TUNE_CACHE.clear()
        _MODEL_CACHE.clear()


def tune_cache_len() -> int:
    """Current number of memoized tune results."""
    with _LOCK:
        return len(_TUNE_CACHE)


@dataclass(frozen=True)
class TuneResult:
    config: GnnOneConfig
    time_us: float
    #: (cache_size, schedule) -> simulated microseconds.  Exhaustive
    #: search fills every candidate; learned search only the simulated
    #: shortlist.
    trials: dict


def resolve_strategy(strategy: str | None = None) -> str:
    """The effective tuning strategy: explicit arg, else ``REPRO_TUNE``."""
    if strategy is not None:
        check_in(strategy, "strategy", STRATEGIES)
        return strategy
    return settings.get().tune


def _resolve_model(model: "CostModel | None") -> "CostModel | None":
    """The model to rank with: explicit arg, else ``REPRO_TUNE_MODEL``.

    Env-resolved artifacts are cached per (path, mtime) so a retrain
    that overwrites the file is picked up without a process restart.
    """
    if model is not None:
        return model
    path = settings.get().tune_model
    if not path:
        return None
    try:
        mtime = os.stat(path).st_mtime_ns
    except OSError:
        return None
    with _LOCK:
        cached = _MODEL_CACHE.get(path)
        if cached is not None and cached[0] == mtime:
            return cached[1]
    from repro.errors import ConfigError
    from repro.tune.model import load_model

    try:
        loaded = load_model(path)
    except ConfigError:
        return None
    with _LOCK:
        _MODEL_CACHE[path] = (mtime, loaded)
    return loaded


def _model_token(model: "CostModel") -> str:
    """A stable memo-key fingerprint of a trained model's parameters."""
    return hashlib.blake2b(
        np.ascontiguousarray(model.params, dtype=np.float64).tobytes(),
        digest_size=8,
    ).hexdigest()


def autotune(
    A: COOMatrix,
    feature_length: int,
    kind: str = "spmm",
    *,
    cache_sizes: tuple[int, ...] = DEFAULT_CACHE_SIZES,
    schedules: tuple[str, ...] = (CONSECUTIVE, ROUND_ROBIN),
    device: DeviceSpec | str | None = None,
    seed: int = 0,
    operands: tuple[np.ndarray, np.ndarray] | None = None,
    strategy: str | None = None,
    model: "CostModel | None" = None,
    top_k: int | None = None,
) -> TuneResult:
    """Pick the fastest GNNOne config for ``A`` at ``feature_length``.

    ``operands`` optionally supplies a pre-generated operand pair —
    ``(edge_values, X)`` for spmm, ``(X_rows, Y_cols)`` for sddmm — so
    callers that already hold training tensors skip the rng draw; when
    omitted, one draw from ``seed`` is shared across all trial configs.
    The result is memoized per structure token: the trial times are
    value-independent, so neither ``seed`` nor ``operands`` participates
    in the memo key.

    ``strategy`` selects exhaustive (``"exact"``) or model-pruned
    (``"learned"``) search; ``None`` defers to ``REPRO_TUNE``.  The
    learned path needs a :class:`~repro.tune.model.CostModel` — passed
    explicitly or resolved from ``REPRO_TUNE_MODEL`` — and otherwise
    falls back to exact search (``tune.fallback`` counter + event).
    ``top_k`` bounds the learned path's exact simulations (default
    :data:`repro.tune.search.DEFAULT_TOP_K`).
    """
    check_in(kind, "kind", ("spmm", "sddmm"))
    dev = get_device(device)
    strat = resolve_strategy(strategy)
    resolved_model = _resolve_model(model) if strat == "learned" else None
    if strat == "learned" and resolved_model is None:
        obs.get_metrics().counter("tune.fallback").inc()
        obs.event("tune.fallback", reason="no-model", kind=kind)
        strat = "exact"
    strat_token: tuple = (strat,)
    if strat == "learned":
        strat_token = ("learned", _model_token(resolved_model), top_k)
    memo_key = (
        A.structure_token, kind, int(feature_length), dev, tuple(cache_sizes),
        tuple(schedules), strat_token,
    )
    caching = plancache.plan_cache_enabled()
    if caching:
        with _LOCK:
            hit = _TUNE_CACHE.get(memo_key)
            if hit is not None:
                _TUNE_CACHE.move_to_end(memo_key)
        if hit is not None:
            obs.get_metrics().counter("plancache.tune.hit").inc()
            obs.event("tune.cache_hit", kind=kind, strategy=strat)
            return hit
        obs.get_metrics().counter("plancache.tune.miss").inc()
        obs.event("tune.cache_miss", kind=kind, strategy=strat)

    if strat == "learned":
        from repro.tune.search import DEFAULT_TOP_K, learned_autotune

        result = learned_autotune(
            A, feature_length, kind,
            model=resolved_model,
            cache_sizes=cache_sizes, schedules=schedules, device=dev,
            top_k=DEFAULT_TOP_K if top_k is None else top_k,
            seed=seed, operands=operands,
        ).tune_result
    else:
        result = _exhaustive(
            A, feature_length, kind,
            cache_sizes=cache_sizes, schedules=schedules, dev=dev,
            seed=seed, operands=operands,
        )
    if caching:
        with _LOCK:
            _TUNE_CACHE[memo_key] = result
            _TUNE_CACHE.move_to_end(memo_key)
            while len(_TUNE_CACHE) > TUNE_CACHE_CAP:
                _TUNE_CACHE.popitem(last=False)
                obs.get_metrics().counter("plancache.tune.evict").inc()
    return result


def _exhaustive(
    A: COOMatrix,
    feature_length: int,
    kind: str,
    *,
    cache_sizes: tuple[int, ...],
    schedules: tuple[str, ...],
    dev: DeviceSpec,
    seed: int,
    operands: tuple[np.ndarray, np.ndarray] | None,
) -> TuneResult:
    rng = np.random.default_rng(seed)
    if kind == "spmm":
        if operands is not None:
            vals, X = operands
        else:
            X = rng.standard_normal((A.num_cols, feature_length))
            vals = rng.standard_normal(A.nnz)

        def run(cfg: GnnOneConfig) -> float:
            return GnnOneSpMM(cfg)(A, vals, X, device=dev).time_us

    else:
        if operands is not None:
            Xr, X = operands
        else:
            X = rng.standard_normal((A.num_cols, feature_length))
            Xr = rng.standard_normal((A.num_rows, feature_length))

        def run(cfg: GnnOneConfig) -> float:
            return GnnOneSDDMM(cfg)(A, Xr, X, device=dev).time_us

    trials: dict[tuple[int, str], float] = {}
    best: tuple[float, GnnOneConfig] | None = None
    for cache in cache_sizes:
        for sched in schedules:
            cfg = GnnOneConfig(cache_size=cache, schedule=sched)
            t = run(cfg)
            trials[(cache, sched)] = t
            if best is None or t < best[0]:
                best = (t, cfg)
    assert best is not None
    return TuneResult(config=best[1], time_us=best[0], trials=trials)
