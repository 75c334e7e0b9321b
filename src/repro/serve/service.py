"""Micro-batched asyncio inference service over a resident graph.

The paper's data-load argument, applied online: N concurrent requests
against one resident topology should cost one NZE pass, not N.  The
service keeps a :class:`~repro.nn.graph.GraphData` (and optionally a
trained model + feature matrix) resident, admits requests into a
bounded :class:`~repro.serve.scheduler.DeadlineScheduler`, and a single
drain task coalesces whatever is pending — up to ``max_batch``
requests, lingering at most ``max_delay_us`` for stragglers — into one
fused launch through the normal kernel path, so the plan-cache lookup
and launch overhead are amortized per *batch* instead of per request.

Two request kinds cover the serving surface:

* :meth:`InferenceService.propagate` — caller-supplied feature columns
  pushed through one step of GCN-normalized aggregation
  (``Y = Â X``).  A batch hstacks every pending request's columns,
  zero-pads to the next power-of-two width (so steady-state traffic
  touches a handful of plan-cache keys regardless of arrival pattern),
  launches one SpMM, and hands each request back its column slice.
  That launch is one helper, ``_propagate``; the degraded path calls
  it once per request.
  SpMM accumulates each output column independently, in the same
  per-row edge order at every width, so the slice is **bit-identical**
  to serving that request alone.
* :meth:`InferenceService.predict` — node-id queries against the
  resident model/features.  The logits are computed once, when the
  service is built; a predict is a row gather answered at admission.

Scheduling: each request carries a **priority class** (``interactive``
> ``standard`` > ``bulk``, strict) and an optional **deadline**; the
scheduler serves earliest-deadline-first within a class and sheds
already-expired requests *before* launch with a typed
:class:`~repro.errors.DeadlineExceededError` — no kernel work is spent
computing answers nobody is waiting for.

Resilience: a full queue load-sheds at admission
(:class:`~repro.errors.ServiceOverloadedError`); waiting past the
deadline raises :class:`~repro.errors.RequestTimeoutError`; a failed
fused launch (the ``serve.batch_fail`` chaos site) degrades the batch
to per-request execution with a bounded retry budget — numerics are
identical on both paths, so a chaos run can slow responses but never
corrupt them.  A :class:`~repro.serve.breaker.CircuitBreaker` watches
batch outcomes: consecutive total-batch failures trip it open and new
requests fast-fail with :class:`~repro.errors.CircuitOpenError` until a
half-open probe succeeds.  :meth:`InferenceService.close` drains
gracefully — the in-flight batch completes, queued requests get a
typed :class:`~repro.errors.ServiceClosedError`, nothing is lost or
corrupted — which is also what :meth:`ServeTransport.shutdown` calls.

Every request/batch/shed/degrade is counted in
:attr:`InferenceService.stats` (a :class:`ServeStats`, which
:meth:`InferenceService.health` reports) and is visible in a
``repro.obs`` trace: ``serve.request`` / ``serve.queue`` /
``serve.batch`` spans (the first two emitted retroactively via
:func:`repro.obs.emit_span`, since a request's lifecycle crosses tasks)
and ``serve.shed`` / ``serve.degraded`` / ``serve.breaker`` / ... events,
so ``python -m repro.obs summary`` and ``timeline`` reconstruct the
serving picture from a trace.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro import core, obs
from repro.errors import (
    CircuitOpenError,
    ConfigError,
    DeadlineExceededError,
    FaultInjectedError,
    RequestTimeoutError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.nn.graph import GraphData
from repro.nn.tensor import Tensor
from repro.resilience import faults
from repro.serve.breaker import CircuitBreaker
from repro.serve.config import ServeConfig
from repro.serve.scheduler import (
    PRIORITY_NAMES,
    DeadlineScheduler,
    SchedulerClosed,
    check_deadline,
    resolve_priority,
)

#: chaos site consulted once per fused launch and once per unbatched
#: attempt (see :mod:`repro.resilience.faults`).
FAULT_SITE = "serve.batch_fail"


def _bucket(width: int) -> int:
    """Next power of two >= width: the batcher's plan-key quantizer."""
    return 1 << max(0, int(width) - 1).bit_length() if width > 1 else 1


def _float_array(values, what: str) -> np.ndarray:
    """``values`` as a float64 array, or a typed error naming ``what``."""
    try:
        x = np.asarray(values)
    except ValueError as e:  # ragged nesting
        raise ConfigError(f"{what} must be rectangular: {e}") from None
    # Strings, bools and complex values would cast to some number.
    if x.dtype.kind not in "iuf":
        raise ConfigError(f"{what} must be integers or floats, got dtype {x.dtype}")
    return x.astype(np.float64, copy=False)


@dataclass
class _Request:
    """One admitted query; a propagate one waits on the drain task."""

    kind: str  # "propagate" | "predict"
    payload: np.ndarray
    future: "asyncio.Future[Any]"
    #: epoch seconds at admission (span alignment)
    t_admit_s: float
    #: perf-counter seconds at admission (latency measurement)
    t_admit_p: float
    #: strict priority rank (see :data:`~repro.serve.scheduler.PRIORITY_CLASSES`)
    priority: int = 1
    #: absolute perf-counter deadline; ``None`` = wait forever
    deadline_p: float | None = None
    #: perf-counter seconds when the batcher picked the request up
    t_drain_p: float = 0.0
    #: restore 1-D output for 1-D propagate input / scalar predict input
    squeeze: bool = False


@dataclass
class ServeStats:
    """Service-side SLO counters, independent of the obs kill switch."""

    requests: int = 0
    shed: int = 0
    timeouts: int = 0
    deadline_shed: int = 0
    breaker_fastfail: int = 0
    batches: int = 0
    fused_requests: int = 0
    degraded: int = 0
    retries: int = 0
    drained: int = 0
    latencies_ms: list[float] = field(default_factory=list)

    @property
    def mean_occupancy(self) -> float:
        return self.fused_requests / self.batches if self.batches else 0.0

    def to_dict(self) -> dict[str, float | int]:
        return {
            "requests": self.requests,
            "shed": self.shed,
            "timeouts": self.timeouts,
            "deadline_shed": self.deadline_shed,
            "breaker_fastfail": self.breaker_fastfail,
            "batches": self.batches,
            "degraded": self.degraded,
            "retries": self.retries,
            "drained": self.drained,
            "mean_occupancy": self.mean_occupancy,
            "p50_ms": obs.percentile(self.latencies_ms, 50),
            "p99_ms": obs.percentile(self.latencies_ms, 99),
        }


class InferenceService:
    """Resident-graph inference with micro-batched fused launches.

    Usage::

        service = InferenceService(graph, model=model, features=data.features)
        async with service:
            y = await service.propagate(column)          # one step of Â x
            fast = await service.propagate(column, priority="interactive",
                                           deadline_ms=50.0)
            logits = await service.predict([7, 9, 23])   # model rows
    """

    def __init__(
        self,
        graph: GraphData,
        *,
        model=None,
        features: np.ndarray | None = None,
        config: ServeConfig | None = None,
    ):
        self.graph = graph
        self.config = config if config is not None else ServeConfig()
        self._logits: np.ndarray | None = None
        if features is not None:
            x = _float_array(features, "features")
            if x.ndim != 2 or x.shape[0] != graph.num_vertices:
                raise ConfigError(
                    f"features must be (|V|, F) = ({graph.num_vertices}, F), "
                    f"got {np.shape(features)}"
                )
            if model is not None:
                # Model and features are fixed for the service's life, so
                # every predict answer is a row of this one eval-mode
                # (dropout-free) forward.
                self._logits = np.array(model.eval()(graph, Tensor(x)).data)
                self._logits.setflags(write=False)
        self.stats = ServeStats()
        self.breaker = CircuitBreaker(
            fail_threshold=self.config.breaker_threshold,
            reset_after_ms=self.config.breaker_reset_ms,
        )
        self._scheduler: DeadlineScheduler | None = None
        self._drain_task: asyncio.Task | None = None
        self._running = False

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> "InferenceService":
        if self._running:
            return self
        self._scheduler = DeadlineScheduler(self.config.queue_depth)
        self._running = True
        self._drain_task = asyncio.get_running_loop().create_task(self._drain())
        return self

    async def close(self) -> None:
        """Graceful drain: the in-flight batch completes, queued requests
        get a typed :class:`~repro.errors.ServiceClosedError`, then the
        drain task exits.  Zero responses are lost or corrupted — every
        admitted request resolves to a real result or a typed error."""
        if not self._running:
            return
        self._running = False
        scheduler, task = self._scheduler, self._drain_task
        self._drain_task = None
        if scheduler is not None:
            scheduler.close()  # wakes a blocked get(); no new batches start
        if task is not None:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._scheduler = None
        rejected = 0
        pending = scheduler.drain_pending() if scheduler is not None else []
        for req in pending:
            if not req.future.done():
                rejected += 1
                req.future.set_exception(
                    ServiceClosedError("service stopped with the request pending")
                )
        self.stats.drained += rejected
        obs.event("serve.drain", rejected=rejected)

    async def __aenter__(self) -> "InferenceService":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    # ------------------------------------------------------------- requests

    async def propagate(
        self,
        columns: np.ndarray,
        *,
        priority: str | None = None,
        deadline_ms: float | None = None,
    ) -> np.ndarray:
        """One step of normalized aggregation ``Y = Â X`` for the caller's
        feature column(s); shape ``(|V|,)`` or ``(|V|, k)``, mirrored back."""
        return await self.submit_nowait(
            "propagate", columns, priority=priority, deadline_ms=deadline_ms
        )

    async def predict(
        self,
        node_ids: int | Sequence[int] | np.ndarray,
        *,
        priority: str | None = None,
        deadline_ms: float | None = None,
    ) -> np.ndarray:
        """Model logits for the queried node(s).

        The logits are a snapshot taken when the service was built:
        changing the model's parameters or the caller's feature array in
        place afterwards does not change the answers.
        """
        return await self.submit_nowait(
            "predict", node_ids, priority=priority, deadline_ms=deadline_ms
        )

    def validate_columns(self, columns) -> tuple[np.ndarray, bool]:
        """``(x, squeeze)``: propagate columns as a float ``(|V|, k)`` array.

        ``squeeze`` records a 1-D input, whose answer is 1-D again.
        """
        x = _float_array(columns, "propagate columns")
        squeeze = x.ndim == 1
        if squeeze:
            x = x[:, None]
        if x.ndim != 2 or x.shape[0] != self.graph.num_vertices:
            raise ConfigError(
                f"propagate columns must be (|V|,) or (|V|, k) with "
                f"|V|={self.graph.num_vertices}, got {np.shape(columns)}"
            )
        return x, squeeze

    def validate_ids(self, node_ids) -> tuple[np.ndarray, bool]:
        """``(ids, squeeze)``: predict node ids as a 1-D int64 array.

        ``squeeze`` records a scalar input.  Ids must already be
        integers: a float, bool or string id is rejected rather than
        truncated or parsed into some other node's row.
        """
        if self._logits is None:
            raise ConfigError("predict requires a service with model= and features=")
        try:
            ids = np.asarray(node_ids)
        except ValueError as e:  # ragged nesting
            raise ConfigError(f"node_ids must be non-empty 1-D: {e}") from None
        squeeze = ids.ndim == 0
        ids = np.atleast_1d(ids)
        if ids.ndim != 1 or ids.size == 0:
            raise ConfigError(f"node_ids must be non-empty 1-D, got {ids.shape}")
        if ids.dtype.kind not in "iu":
            raise ConfigError(f"node ids must be integers, got dtype {ids.dtype}")
        if ids.min() < 0 or ids.max() >= self.graph.num_vertices:
            raise ConfigError(
                f"node ids must be in [0, {self.graph.num_vertices}), "
                f"got range [{ids.min()}, {ids.max()}]"
            )
        return ids.astype(np.int64, copy=False), squeeze

    def health(self) -> dict[str, Any]:
        """Liveness/readiness snapshot (what the transport probes serve).

        ``ready`` means "a request admitted now would be scheduled":
        running, breaker not fast-failing, queue not saturated.  Reading
        it changes no breaker state (only an admission half-opens one).
        """
        depth = self._scheduler.qsize() if self._scheduler is not None else 0
        full = self._scheduler.full() if self._scheduler is not None else True
        return {
            "running": self._running,
            "ready": self._running and self.breaker.retry_after_ms() == 0.0 and not full,
            "queue_depth": depth,
            "breaker": self.breaker.snapshot(),
            "stats": self.stats.to_dict(),
        }

    def submit_nowait(
        self,
        kind: str,
        payload,
        *,
        priority: str | None = None,
        deadline_ms: float | None = None,
    ) -> "asyncio.Future[Any]":
        """Admit one request synchronously; the future is the response.

        The transport's hot path: admission (breaker, priority,
        deadline, queue) happens inline with no per-request task or
        ``wait_for`` wrapper — the deadline is an armed timer that
        fails the future with :class:`~repro.errors.RequestTimeoutError`
        if it is still unresolved when the budget runs out.  A predict
        request comes back already resolved with its logit rows.
        This is the one admission check for in-process and wire requests
        alike: the payload goes through :meth:`validate_columns` or
        :meth:`validate_ids`, so a rejection raises synchronously, typed,
        before anything is queued or charged to the breaker.  So does a
        ``kind`` other than ``propagate``/``predict``
        (:class:`~repro.errors.ConfigError`).
        """
        if not isinstance(kind, str) or kind not in ("propagate", "predict"):
            raise ConfigError(
                f"submit_nowait takes kind 'propagate' or 'predict', got {kind!r}"
            )
        validate = self.validate_columns if kind == "propagate" else self.validate_ids
        payload, squeeze = validate(payload)
        if not self._running or self._scheduler is None:
            raise ServiceClosedError("service is not running (use 'async with')")
        if not self.breaker.allow():
            retry_after = self.breaker.retry_after_ms()
            self.stats.breaker_fastfail += 1
            obs.event("serve.breaker_fastfail", kind=kind, retry_after_ms=retry_after)
            raise CircuitOpenError(
                f"circuit open: retry in {retry_after:.0f} ms",
                retry_after_ms=retry_after,
            )
        rank = resolve_priority(priority)
        check_deadline(deadline_ms)
        if deadline_ms is None:
            deadline_ms = self.config.timeout_ms
        if deadline_ms is not None and deadline_ms <= 0:
            deadline_ms = None  # 0 disables, as ServeConfig.timeout_ms does
        loop = asyncio.get_running_loop()
        now_p = time.perf_counter()
        req = _Request(
            kind=kind,
            payload=payload,
            future=loop.create_future(),
            t_admit_s=time.time(),
            t_admit_p=now_p,
            priority=rank,
            deadline_p=None if deadline_ms is None else now_p + deadline_ms / 1e3,
            squeeze=squeeze,
        )
        if kind != "predict":
            try:
                self._scheduler.put_nowait(req)
            except asyncio.QueueFull:
                depth = self._scheduler.qsize()
                self.stats.shed += 1
                obs.event("serve.shed", kind=kind, queue_depth=depth)
                raise ServiceOverloadedError(
                    f"queue full ({depth} pending): request shed", queue_depth=depth
                ) from None
        self.stats.requests += 1
        if kind == "predict":
            rows = self._logits[payload]
            req.t_drain_p = now_p  # never queued
            self._resolve([req], [rows[0] if squeeze else rows])
        elif deadline_ms is not None:
            timer = loop.call_later(
                deadline_ms / 1e3, self._expire_waiting, req, deadline_ms
            )
            req.future.add_done_callback(lambda _f: timer.cancel())
        return req.future

    def _expire_waiting(self, req: _Request, deadline_ms: float) -> None:
        """Deadline timer: fail a still-unresolved request, typed."""
        if req.future.done():
            return
        self.stats.timeouts += 1
        obs.event("serve.timeout", kind=req.kind)
        req.future.set_exception(
            RequestTimeoutError(
                f"{req.kind} request missed its {deadline_ms:.0f} ms deadline"
            )
        )

    # ---------------------------------------------------------- micro-batch

    def _shed_expired(self, expired: list[_Request]) -> None:
        """Fail already-expired requests pre-launch, typed and accounted."""
        for req in expired:
            if req.future.done():
                continue
            self.stats.deadline_shed += 1
            obs.event(
                "serve.deadline_shed", kind=req.kind,
                priority=PRIORITY_NAMES[req.priority],
            )
            req.future.set_exception(
                DeadlineExceededError(
                    f"{req.kind} deadline expired before launch; shed unexecuted"
                )
            )

    async def _drain(self) -> None:
        """Single consumer of the propagate queue: collect, shed expired,
        fuse, scatter."""
        scheduler = self._scheduler
        assert scheduler is not None
        loop = asyncio.get_running_loop()
        linger = self.config.max_delay_us / 1e6
        limit = self.config.max_batch
        while True:
            try:
                batch = [await scheduler.get()]
            except SchedulerClosed:
                return  # graceful drain: close() rejects what remains
            # Greedy collection under a (max_batch, max_delay) cap.  A
            # ready queue drains without yielding; an empty one gets two
            # event-loop yields so producers woken by the previous
            # batch's results can enqueue their next request — then the
            # batch dispatches rather than lingering out the deadline
            # (closed-loop clients are all blocked on *us*, so waiting
            # longer can never grow the batch, only the latency).
            deadline = loop.time() + linger
            idle_yields = 0
            while len(batch) < limit:
                try:
                    batch.append(scheduler.get_nowait())
                    idle_yields = 0
                    continue
                except asyncio.QueueEmpty:
                    pass
                if idle_yields >= 2 or loop.time() >= deadline:
                    break
                await asyncio.sleep(0)
                idle_yields += 1
            t_drain = time.perf_counter()
            # Expired-deadline requests are shed before launch: the ones
            # collected into this batch and the ones still queued behind
            # it (their waiters would drop the result anyway).
            expired = [
                r for r in batch
                if r.deadline_p is not None and r.deadline_p < t_drain
            ]
            self._shed_expired(expired + scheduler.pop_expired(t_drain))
            requests = []
            for req in batch:
                req.t_drain_p = t_drain
                if not req.future.done():  # deadline missed / shed in queue
                    requests.append(req)
            if not requests:
                continue
            try:
                outcomes = await loop.run_in_executor(
                    None, self._run_batch, requests
                )
            except Exception as e:  # defensive: never kill the drain task
                outcomes = [e] * len(requests)
            self._report_to_breaker(outcomes)
            self._resolve(requests, outcomes)

    def _report_to_breaker(self, outcomes: list[Any]) -> None:
        """One batch verdict for the breaker: total failure trips it.

        A batch where *every* member errored is the signal the breaker
        exists for (nothing is getting through); a batch with at least
        one good response proves the execution path works and resets
        the failure streak.
        """
        if outcomes and all(isinstance(o, BaseException) for o in outcomes):
            self.breaker.record_failure()
        elif outcomes:
            self.breaker.record_success()

    def _resolve(self, requests: list[_Request], outcomes: list[Any]) -> None:
        """Scatter per-request outcomes and close out SLO accounting."""
        now_p = time.perf_counter()
        for req, outcome in zip(requests, outcomes):
            failed = isinstance(outcome, BaseException)
            if not req.future.done():
                if failed:
                    req.future.set_exception(outcome)
                else:
                    req.future.set_result(outcome)
            latency_ms = (now_p - req.t_admit_p) * 1e3
            queued_ms = (req.t_drain_p - req.t_admit_p) * 1e3
            self.stats.latencies_ms.append(latency_ms)
            obs.emit_span(
                "serve.request", start_s=req.t_admit_s, wall_ms=latency_ms,
                status="error" if failed else "ok", kind=req.kind,
                priority=PRIORITY_NAMES[req.priority],
            )
            obs.emit_span(
                "serve.queue", start_s=req.t_admit_s, wall_ms=queued_ms,
                kind=req.kind, worker="queue",
            )

    # ------------------------------------------------- synchronous numerics

    def _run_batch(self, requests: list[_Request]) -> list[Any]:
        """Execute one propagate batch in the executor thread.

        Returns one outcome per request (result array or exception).
        The fused path fails as a unit — a ``serve.batch_fail`` fire (or
        any unexpected error) degrades to per-request execution with a
        bounded retry budget, so one poisoned launch can't take down the
        whole batch's requests.
        """
        injector = faults.get_injector()
        self.stats.batches += 1
        self.stats.fused_requests += len(requests)
        with obs.span(
            "serve.batch", kind="propagate", occupancy=len(requests),
            worker="serve",
        ) as sp:
            try:
                injector.maybe_raise(FAULT_SITE, occupancy=len(requests))
                results, sim_us = self._propagate(requests)
                sp.add_sim_us(sim_us)
                return results
            except Exception:
                self.stats.degraded += 1
                obs.event("serve.degraded", kind="propagate",
                          occupancy=len(requests))
                sp.set(degraded=True)
            return [self._run_single(req, injector) for req in requests]

    def _propagate(self, requests: list[_Request]) -> tuple[list[np.ndarray], float]:
        """One launch over the requests' columns: each request's answer
        and the launch's simulated microseconds.

        The columns are stacked side by side and zero-padded to the next
        power-of-two width; each request gets back its own contiguous
        column slice (1-D again for a 1-D input).
        """
        widths = [req.payload.shape[1] for req in requests]
        stacked = np.zeros((self.graph.num_vertices, _bucket(sum(widths))))
        col = 0
        for req, width in zip(requests, widths):
            stacked[:, col : col + width] = req.payload
            col += width
        out, cost = core.spmm(self.graph.coo, self.graph.gcn_edge_values, stacked)
        results, lo = [], 0
        for req, width in zip(requests, widths):
            sliced = np.ascontiguousarray(out[:, lo : lo + width])
            results.append(sliced[:, 0] if req.squeeze else sliced)
            lo += width
        return results, cost.time_us

    def _run_single(self, req: _Request, injector) -> Any:
        """Unbatched execution with retries (the degraded path)."""
        attempts = 1 + self.config.retries
        for attempt in range(attempts):
            try:
                injector.maybe_raise(FAULT_SITE, attempt=attempt)
                (result,), _ = self._propagate([req])
                return result
            except FaultInjectedError as e:
                if attempt == attempts - 1:
                    return e
                self.stats.retries += 1
            except Exception as e:
                return e
