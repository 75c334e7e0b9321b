"""``serve``: propagate (slot a) and predict (slot b) requests over loopback TCP.

``ServeTransport`` and one ``ServeClient`` connection share this single
process and event loop.  The service keeps G2 resident with a 2-layer
GCN over F=64 features.  The unloaded phase alternates one propagate
(one feature column) and one predict (8 node ids) with one request in
flight; the loaded phase is a closed loop of fixed callers (6 propagate
+ 2 predict) on the same connection.  The two phases alternate in
rounds (``runner.ROUNDS``).  It is the only workload that passes
through protocol, transport, admission, micro-batching and the
per-batch model forward: propagate is transport-bound, predict
recomputes the full forward per batch.  The seed sets the request pools
and the model; every response must equal its serial reference bit for
bit (``core.spmm`` on the one column, rows of a standalone forward).
The process is pinned to one CPU, so thread hand-offs between the event
loop and the service's batch executor cost the same from run to run.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time

import numpy as np

from repro import core
from repro.core import clear_plan_cache
from repro.errors import ReproError
from repro.nn import GCN, GraphData, SimClock, Tensor, simulate
from repro.serve import InferenceService, ServeClient, ServeConfig, ServeTransport
from repro.sparse.datasets import load_dataset
from repro.utils.rng import default_rng

from e2ebench import stats
from e2ebench.runner import Outcome

DATASET = "G2"
FEATURES = 64
HIDDEN = 16
CLASSES = 3
#: distinct requests of each kind; the phases cycle through them
POOL = 32
PREDICT_IDS = 8
#: closed-loop callers of the loaded phase, all on the one connection
CALLERS = {"propagate": 6, "predict": 2}
#: responses per block of the loaded-phase rate
RATE_BLOCK = 100


class Serve:
    #: a set-up takes ~0.2 s, so more of them steady their median cheaply
    setups = 5
    loaded_share = 0.5

    def __init__(self, seed: int, outcome: Outcome):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.outcome = outcome
        self.seed = seed
        self.loop = asyncio.new_event_loop()
        self.client = self.transport = self.service = None
        self.sent = {"a": 0, "b": 0}
        self.loaded_ms: list[float] = []
        #: loaded-phase figures, summed over the phase's rounds
        self.block_rps: list[float] = []
        self.fused = self.batches = self.propagated = 0
        self.threads = 0
        self._reference()

    def _model(self) -> GCN:
        return GCN(FEATURES, HIDDEN, CLASSES, seed=self.seed)

    def _reference(self) -> None:
        """Request pools and their serial responses, from a standalone graph
        and model (the service gets its own instances)."""
        rng = default_rng(self.seed)
        graph = GraphData(load_dataset(DATASET).coo).warm()
        n = graph.num_vertices
        self.features = rng.standard_normal((n, FEATURES))
        self.columns = [rng.standard_normal(n) for _ in range(POOL)]
        self.id_sets = [rng.integers(0, n, PREDICT_IDS) for _ in range(POOL)]
        self.column_refs = []
        for col in self.columns:
            out, cost = core.spmm(graph.coo, graph.gcn_edge_values, col[:, None])
            self.column_refs.append(np.ascontiguousarray(out[:, 0]))
        model = self._model().eval()
        clock = SimClock()
        with simulate(clock):
            logits = model(graph, Tensor(self.features)).data
        self.id_refs = [logits[ids] for ids in self.id_sets]
        self.sim_us = {"a": cost.time_us, "b": clock.total_us}

    # ------------------------------------------------------------ set-up

    async def _stop(self) -> None:
        if self.client is not None:
            await self.client.close()
        if self.transport is not None:
            await self.transport.shutdown()
        self.client = self.transport = self.service = None

    async def _start(self) -> None:
        clear_plan_cache()
        graph = GraphData(load_dataset(DATASET).coo).warm()
        self.service = InferenceService(
            graph, model=self._model(), features=self.features, config=ServeConfig()
        )
        self.transport = await ServeTransport(self.service, port=0).start()
        self.client = await ServeClient(port=self.transport.port).connect()
        await self._request("a")
        await self._request("b")

    def setup(self) -> None:
        """Service build, plan-cache priming and the first response of each kind."""
        self.loop.run_until_complete(self._stop())
        self.sent = {"a": 0, "b": 0}
        self.loop.run_until_complete(self._start())

    # ---------------------------------------------------------- requests

    async def _request(self, slot: str, probe=None) -> bool:
        i = self.sent[slot] % POOL
        self.sent[slot] += 1
        call = (self.client.propagate(self.columns[i]) if slot == "a"
                else self.client.predict(self.id_sets[i]))
        ref = self.column_refs[i] if slot == "a" else self.id_refs[i]
        try:
            if probe is None:
                got = await call
            else:
                before = len(self.service.stats.latencies_ms)
                with probe.op(slot):
                    got = await call
                probe.add(slot, "serve.service_ms",
                          sum(self.service.stats.latencies_ms[before:]))
        except ReproError as e:
            return self.outcome.check(False, f"{slot} request failed: {e!r}")
        return self.outcome.check(np.array_equal(got, ref),
                                  f"{slot} response {i} differs from its reference")

    def op(self, slot: str, probe) -> None:
        self.loop.run_until_complete(self._request(slot, probe))

    async def _closed_loop(self, seconds: float) -> list[float]:
        """Run the callers for ``seconds``; the times correct responses arrived."""
        stop = time.perf_counter() + seconds
        arrivals: list[float] = []

        async def caller(slot: str) -> None:
            while time.perf_counter() < stop:
                t0 = time.perf_counter()
                ok = await self._request(slot)
                t1 = time.perf_counter()
                self.loaded_ms.append((t1 - t0) * 1e3)
                if ok:
                    arrivals.append(t1)

        slots = ["a"] * CALLERS["propagate"] + ["b"] * CALLERS["predict"]
        await asyncio.gather(*(caller(s) for s in slots))
        return arrivals

    def loaded(self, seconds: float, widths) -> None:
        """One round of the loaded phase; the figures add up over rounds."""
        stats_ = self.service.stats
        requests0, batches0 = stats_.fused_requests, stats_.batches
        propagated0 = self.sent["a"]
        arrivals = self.loop.run_until_complete(self._closed_loop(seconds))
        # rates over blocks of consecutive responses, reported as their
        # median: a burst of host noise slows a few blocks, not the figure
        self.block_rps += [
            RATE_BLOCK / (arrivals[i + RATE_BLOCK] - arrivals[i])
            for i in range(0, len(arrivals) - RATE_BLOCK, RATE_BLOCK)
        ]
        if len(arrivals) > 1 and len(arrivals) <= RATE_BLOCK:
            self.block_rps.append((len(arrivals) - 1) / (arrivals[-1] - arrivals[0]))
        # the load generator is coroutines on the server's own loop: every
        # thread besides the main one belongs to the service's executor
        self.threads = threading.active_count()
        self.fused += stats_.fused_requests - requests0
        self.batches += stats_.batches - batches0
        self.propagated += self.sent["a"] - propagated0
        self.pad_ratio = 0.0
        if widths is not None:
            launched = widths.counts["loaded"]["serve.launched_columns"]
            self.pad_ratio = self.propagated / launched if launched else 0.0

    # ----------------------------------------------------------- results

    def finish(self) -> None:
        s = self.service.stats
        self.outcome.check(s.shed == 0 and s.timeouts == 0 and s.deadline_shed == 0,
                           f"shed {s.shed}, timed out {s.timeouts}, "
                           f"deadline-shed {s.deadline_shed}")

    def end_to_end(self, probe) -> dict[str, float]:
        return {
            "a_p50_ms": stats.median(probe.ops["a"]) * 1e3,
            "b_p50_ms": stats.median(probe.ops["b"]) * 1e3,
            "a_sim_us": self.sim_us["a"],
            "b_sim_us": self.sim_us["b"],
            "ops_per_s": stats.median(self.block_rps),
        }

    def layer_extras(self) -> dict[str, float]:
        return {
            "serve.occupancy": self.fused / max(1, self.batches),
            "serve.pad_useful_ratio": self.pad_ratio,
            "serve.loaded_p50_ms": stats.percentile(self.loaded_ms, 50),
            "serve.loaded_p99_ms": stats.percentile(self.loaded_ms, 99),
        }

    def close(self) -> None:
        try:
            self.loop.run_until_complete(self._stop())
            self.loop.run_until_complete(self.loop.shutdown_default_executor())
        finally:
            self.loop.close()
