"""Inference-service tests: batching equivalence, backpressure, faults.

The load-bearing property is bit-identity: a response served out of a
micro-batched fused launch must equal — to the last bit — the response
the same request would get from its own serial launch.  The
differential suite (``test_differential.py``) checks it for any batch;
here it is checked unbatched, under faults and for the predict memo.
Everything else (shedding, timeouts, degrades) is about failing loudly
instead of answering wrongly.
"""

from __future__ import annotations

import asyncio
import os

import numpy as np
import pytest

from repro import core, obs, serve
from repro.core import get_plan_cache
from repro.errors import (
    ConfigError,
    RequestTimeoutError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.nn import GCN, GraphData
from repro.nn.tensor import Tensor
from repro.resilience.faults import fault_profile, no_faults
from repro.serve.service import _bucket
from tests.conftest import serial as _serial


def _graph(coo) -> GraphData:
    return GraphData(coo)


def _run(coro):
    return asyncio.run(coro)


def _gather(served, kind: str, payloads: list) -> list:
    """``kind`` requests for every payload, pending together on ``served``."""
    async def main():
        return await asyncio.gather(*[getattr(served.service, kind)(p) for p in payloads])

    return served.run(main())


async def _mixed(served, columns, ids):
    """Propagates and predicts pending together; propagate answers first."""
    return await asyncio.gather(*[served.service.propagate(c) for c in columns],
                                *[served.service.predict(i) for i in ids])


async def _serve_all(graph, payloads, config=None, **kwargs):
    service = serve.InferenceService(graph, config=config, **kwargs)
    async with service:
        results = await asyncio.gather(*[service.propagate(p) for p in payloads])
    return results, service


class TestBucket:
    def test_power_of_two(self):
        assert [_bucket(w) for w in (1, 2, 3, 4, 5, 8, 9, 31, 32)] == [
            1, 2, 4, 4, 8, 8, 16, 32, 32,
        ]

    def test_warmed_buckets_absorb_mixed_width_traffic(self, small_graph, rng):
        """Warming every power-of-two width up to the widest possible
        batch leaves mixed-width traffic with zero plan-cache misses."""
        graph = _graph(small_graph)
        config = serve.ServeConfig(max_batch=4, max_delay_us=50_000)
        # Every batch total is a multiple of 3, never a power of two, so
        # only bucketing maps it onto a warmed width.
        widths = [3, 6, 3, 3, 6, 6, 3, 6, 3]
        payloads = [rng.standard_normal((graph.num_vertices, w)) for w in widths]
        cache = get_plan_cache()
        with no_faults():
            width = 1
            while width <= _bucket(config.max_batch * max(widths)):
                x = np.zeros((graph.num_vertices, width))
                core.spmm(graph.coo, graph.gcn_edge_values, x)
                width *= 2
            before = (cache.hits, cache.misses)
            _run(_serve_all(graph, payloads, config))
        assert cache.hits > before[0]
        assert cache.misses == before[1]


class TestBatchingEquivalence:
    """Cases the differential suite's serving table does not draw."""

    def test_unbatched_mode_also_identical(self, small_graph, rng):
        graph = _graph(small_graph)
        columns = [rng.standard_normal(graph.num_vertices) for _ in range(4)]
        config = serve.ServeConfig(max_batch=1)
        results, service = _run(_serve_all(graph, columns, config))
        for column, result in zip(columns, results):
            np.testing.assert_array_equal(result, _serial(graph, column))
        assert service.stats.mean_occupancy == 1.0

    @pytest.mark.parametrize("dtype", ["str", "bool", "complex", "object"])
    def test_non_numeric_features_rejected(self, small_graph, rng, dtype):
        """Features are checked like propagate columns: refused, not cast."""
        graph = _graph(small_graph)
        features = rng.standard_normal((graph.num_vertices, 4))
        bad = {
            "str": features.astype(str),
            "bool": features > 0,
            "complex": features + 1j,
            "object": features.astype(object),
        }[dtype]
        with pytest.raises(ConfigError, match="features must be integers or floats"):
            serve.InferenceService(graph, model=GCN(4, 8, 3), features=bad)


class TestAdmissionControl:
    def test_overload_sheds_with_typed_error(self, small_graph, rng):
        graph = _graph(small_graph)
        columns = [rng.standard_normal(graph.num_vertices) for _ in range(24)]
        config = serve.ServeConfig(queue_depth=2, max_batch=2)

        async def main():
            service = serve.InferenceService(graph, config=config)
            shed, served = 0, []
            async with service:
                async def fire(column):
                    nonlocal shed
                    try:
                        served.append(await service.propagate(column))
                    except ServiceOverloadedError as e:
                        assert e.queue_depth is not None
                        shed += 1

                await asyncio.gather(*[fire(c) for c in columns])
            return shed, served, service

        shed, served, service = _run(main())
        assert shed > 0
        assert shed + len(served) == len(columns)
        assert service.stats.shed == shed
        for result in served:  # survivors are still bit-correct
            assert np.isfinite(result).all()

    def test_timeout_raises_typed_error(self, small_graph, rng):
        graph = _graph(small_graph)
        config = serve.ServeConfig(timeout_ms=0.001)

        async def main():
            async with serve.InferenceService(graph, config=config) as service:
                await service.propagate(rng.standard_normal(graph.num_vertices))

        with pytest.raises(RequestTimeoutError):
            _run(main())

    def test_closed_service_rejects_and_fails_pending(self, small_graph, rng):
        graph = _graph(small_graph)
        column = rng.standard_normal(graph.num_vertices)

        async def main():
            service = serve.InferenceService(graph)
            with pytest.raises(ServiceClosedError):
                await service.propagate(column)  # never started
            async with service:
                pass
            with pytest.raises(ServiceClosedError):
                await service.propagate(column)  # stopped

        _run(main())

class TestPredictMemo:
    """Predict answers are rows of one forward run at construction."""

    @staticmethod
    def _setup(small_graph, rng):
        graph = _graph(small_graph)
        features = rng.standard_normal((graph.num_vertices, 6))
        model = GCN(6, 8, 4, seed=5)
        logits = np.asarray(model.eval()(graph, Tensor(features)).data).copy()
        return graph, features, model, logits

    def test_predicts_launch_no_kernel(self, served, rng):
        ids = [rng.integers(0, served.graph.num_vertices, 5) for _ in range(50)]
        cache = get_plan_cache()

        async def main():
            return [await served.service.predict(i) for i in ids]

        with no_faults(), obs.capture() as records:
            before = (cache.hits, cache.misses)
            rows = served.run(main())
        assert (cache.hits, cache.misses) == before
        assert not [r for r in records if r.get("name", "").startswith("kernel.")]
        assert sum(r.get("name") == "serve.request" for r in records) == 50
        for i, row in zip(ids, rows):
            np.testing.assert_array_equal(row, served.logits[i])

    def test_batch_faults_touch_only_propagate(self, served, rng):
        columns = [rng.standard_normal(served.graph.num_vertices) for _ in range(4)]
        stats = served.service.stats
        before = (stats.batches, stats.fused_requests, stats.degraded, stats.requests)
        with fault_profile("serve.batch_fail=1", seed=3):
            alone = _gather(served, "predict", [[i, i + 1] for i in range(10)])
            batches_alone = stats.batches - before[0]
            mixed = served.run(_mixed(served, columns, list(range(10))))
        for i, row in enumerate(alone):
            np.testing.assert_array_equal(row, served.logits[[i, i + 1]])
        for column, result in zip(columns, mixed[:4]):
            np.testing.assert_array_equal(result, _serial(served.graph, column))
        for i, row in enumerate(mixed[4:]):
            np.testing.assert_array_equal(row, served.logits[i])
        assert batches_alone == 0
        assert stats.fused_requests - before[1] == len(columns)
        assert 1 <= stats.degraded - before[2] <= stats.batches - before[0]
        assert stats.requests - before[3] == 10 + len(columns) + 10

    def test_serves_a_snapshot_taken_at_construction(self, small_graph, rng):
        graph, features, model, logits = self._setup(small_graph, rng)

        async def main():
            service = serve.InferenceService(graph, model=model, features=features)
            features[:] += 1.0
            for p in model.parameters():
                p.data *= 2.0
            async with service:
                return await service.predict(np.arange(graph.num_vertices))

        rows = _run(main())
        changed = np.asarray(model(graph, Tensor(features)).data)
        assert not np.array_equal(changed, logits)  # the edits took effect
        np.testing.assert_array_equal(rows, logits)

    def test_mixed_kinds_and_tenants_bit_identical(self, served, rng):
        """Callers once split by tenant now share batches with mixed kinds."""
        columns = [rng.standard_normal(served.graph.num_vertices) for _ in range(6)]
        ids = [rng.integers(0, served.graph.num_vertices, 3) for _ in range(6)]
        service = served.service

        async def main():
            return await asyncio.gather(*[
                call for c, i in zip(columns, ids)
                for call in (service.propagate(c), service.predict(i))
            ])

        with no_faults():
            outs = served.run(main())
        for k, (column, i) in enumerate(zip(columns, ids)):
            np.testing.assert_array_equal(outs[2 * k], _serial(served.graph, column))
            np.testing.assert_array_equal(outs[2 * k + 1], served.logits[i])


class TestFaultRecovery:
    @staticmethod
    def _answers_under(served, rng, profile, seed, n):
        """``n`` propagates under a fault profile, each bit-identical to its
        serial launch."""
        columns = [rng.standard_normal(served.graph.num_vertices) for _ in range(n)]
        refs = [_serial(served.graph, c) for c in columns]
        with fault_profile(profile, seed=seed):
            results = _gather(served, "propagate", columns)
        for ref, result in zip(refs, results):
            np.testing.assert_array_equal(ref, result)

    def test_batch_fault_degrades_and_recovers(self, served, rng):
        """A certain-fire serve fault slows responses, never corrupts them."""
        stats = served.service.stats
        degraded, retries = stats.degraded, stats.retries
        self._answers_under(served, rng, "serve.batch_fail=1", 3, 6)
        assert stats.degraded > degraded and stats.retries > retries

    def test_chaos_profile_zero_wrong_responses(self, served, rng):
        self._answers_under(served, rng, "chaos", 99, 10)


class TestServeObservability:
    def test_summary_and_timeline_handle_serve_spans(self, served, rng):
        columns = [rng.standard_normal(served.graph.num_vertices) for _ in range(5)]
        with obs.capture() as records:
            _gather(served, "propagate", columns)
        stats = obs.serve_summary(records)
        assert stats["requests"] == 5
        assert stats["batches"] >= 1
        assert stats["p99_ms"] >= stats["p50_ms"] > 0
        assert "5 request(s)" in obs.format_serve_line(stats)
        # serve.request spans overlap freely (async lifecycles); the
        # timeline must still render every lane without raising.
        assert "serve" in obs.format_timeline(records)

    def test_serve_footer_on_empty_trace(self):
        line = obs.format_serve_line(obs.serve_summary([]))
        assert "no inference-service activity" in line

    def test_shed_and_degrade_events_counted(self, small_graph, rng):
        graph = _graph(small_graph)
        columns = [rng.standard_normal(graph.num_vertices) for _ in range(8)]
        config = serve.ServeConfig(queue_depth=1, max_batch=1)
        with obs.capture() as records:
            async def main():
                service = serve.InferenceService(graph, config=config)
                async with service:
                    async def fire(column):
                        try:
                            await service.propagate(column)
                        except ServiceOverloadedError:
                            pass

                    await asyncio.gather(*[fire(c) for c in columns])

            _run(main())
        assert obs.serve_summary(records)["shed"] > 0


class TestServeConfig:
    def test_service_leaves_environ_unchanged(self, small_graph):
        before = dict(os.environ)
        serve.InferenceService(_graph(small_graph))
        assert dict(os.environ) == before

    def test_constructor_validation(self):
        with pytest.raises(ConfigError):
            serve.ServeConfig(max_batch=0)
        with pytest.raises(ConfigError):
            serve.ServeConfig(retries=-1)
