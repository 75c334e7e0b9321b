"""Sharded execution engine: bit-identity, shard plans, pool, fan-out."""

import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import get_plan_cache, set_plan_cache_enabled
from repro.errors import ConfigError
from repro.exec import (
    DEFAULT_MIN_PARALLEL_NNZ,
    BufferPool,
    ExecutionEngine,
    build_row_shard_plan,
    edge_range_bounds,
    exec_workers,
    get_engine,
    resolve_workers,
    row_shard_plan,
    set_exec_workers,
)
from repro.exec.numerics import (
    csr_spmm_serial,
    gat_edge_softmax_serial,
    sddmm_serial,
)
from repro.kernels.gnnone import GnnOneSDDMM, GnnOneSpMM, GnnOneSpMV, segment_sum_spmm
from repro.nn import GCN, GraphData, Trainer, synthesize
from repro.resilience import no_faults
from repro.sparse import COOMatrix
from repro.sparse.datasets import load_dataset
from repro.sparse.partition import nnz_balanced_row_blocks


@pytest.fixture(autouse=True)
def _no_faults(_fresh_injector):
    """Exact launch-counter and shard-plan assertions need a fault-free engine."""
    with no_faults():
        yield


@st.composite
def graph_workers_dim(draw):
    n = draw(st.integers(2, 40))
    nnz = draw(st.integers(0, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coo = COOMatrix.from_edges(
        n, n, rng.integers(0, n, nnz), rng.integers(0, n, nnz)
    )
    workers = draw(st.integers(2, 5))
    F = draw(st.sampled_from([1, 3, 8, 16]))
    return coo, workers, F, rng


class TestBitIdentity:
    """Sharded outputs must equal the serial path bit-for-bit."""

    @given(data=graph_workers_dim())
    @settings(max_examples=40, deadline=None)
    def test_spmm_sharded_equals_serial(self, data):
        coo, workers, F, rng = data
        vals = rng.standard_normal(coo.nnz)
        X = rng.standard_normal((coo.num_cols, F))
        serial = csr_spmm_serial(coo, vals, X)
        with exec_workers(workers, min_parallel_nnz=0):
            sharded = get_engine().spmm(coo, vals, X)
        np.testing.assert_array_equal(sharded, serial)

    @given(data=graph_workers_dim())
    @settings(max_examples=40, deadline=None)
    def test_sddmm_sharded_equals_serial(self, data):
        coo, workers, F, rng = data
        X = rng.standard_normal((coo.num_rows, F))
        Y = rng.standard_normal((coo.num_cols, F))
        serial = sddmm_serial(coo, X, Y)
        with exec_workers(workers, min_parallel_nnz=0):
            sharded = get_engine().sddmm(coo, X, Y)
        np.testing.assert_array_equal(sharded, serial)

    @given(data=graph_workers_dim())
    @settings(max_examples=40, deadline=None)
    def test_spmv_sharded_equals_serial(self, data):
        coo, workers, _, rng = data
        vals = rng.standard_normal(coo.nnz)
        x = rng.standard_normal(coo.num_cols)
        serial = csr_spmm_serial(coo, vals, x)
        with exec_workers(workers, min_parallel_nnz=0):
            sharded = get_engine().spmv(coo, vals, x)
        np.testing.assert_array_equal(sharded, serial)

    @given(data=graph_workers_dim())
    @settings(max_examples=25, deadline=None)
    def test_sharded_spmm_matches_segment_sum(self, data):
        """Against the validation-grade mirror of the kernel arithmetic."""
        coo, workers, F, rng = data
        vals = rng.standard_normal(coo.nnz)
        X = rng.standard_normal((coo.num_cols, F))
        with exec_workers(workers, min_parallel_nnz=0):
            sharded = get_engine().spmm(coo, vals, X)
        np.testing.assert_allclose(
            sharded, segment_sum_spmm(coo, vals, X), rtol=1e-12, atol=1e-12
        )

    def test_sddmm_unsorted_edge_order(self, rng):
        """Non-CSR-ordered COO takes the plain NZE-range split."""
        coo = COOMatrix(6, 6, np.array([4, 0, 2, 0, 3]), np.array([1, 3, 2, 0, 5]))
        assert not coo.is_csr_ordered()
        X = rng.standard_normal((6, 8))
        Y = rng.standard_normal((6, 8))
        serial = sddmm_serial(coo, X, Y)
        with exec_workers(3, min_parallel_nnz=0):
            sharded = get_engine().sddmm(coo, X, Y)
        np.testing.assert_array_equal(sharded, serial)

    def test_empty_graph_all_paths(self):
        empty = COOMatrix.from_edges(5, 5, np.zeros(0, int), np.zeros(0, int))
        with exec_workers(4, min_parallel_nnz=0):
            eng = get_engine()
            np.testing.assert_array_equal(
                eng.spmm(empty, np.zeros(0), np.ones((5, 3))), np.zeros((5, 3))
            )
            np.testing.assert_array_equal(
                eng.spmv(empty, np.zeros(0), np.ones(5)), np.zeros(5)
            )
            assert eng.sddmm(empty, np.ones((5, 3)), np.ones((5, 3))).shape == (0,)

    def test_single_hub_row(self):
        """All NZEs in one row: one block gets everything, rest are empty."""
        nnz = 64
        coo = COOMatrix.from_edges(
            8, 8, np.zeros(nnz, int), np.arange(nnz, dtype=int) % 8
        )
        vals = np.linspace(0.5, 2.0, coo.nnz)
        X = np.arange(8.0 * 4).reshape(8, 4)
        serial = csr_spmm_serial(coo, vals, X)
        with exec_workers(4, min_parallel_nnz=0):
            np.testing.assert_array_equal(get_engine().spmm(coo, vals, X), serial)

    def test_worker_sweep_bit_identical(self, medium_graph):
        rng = np.random.default_rng(23)
        vals = rng.standard_normal(medium_graph.nnz)
        X = rng.standard_normal((medium_graph.num_cols, 4))
        Xr = rng.standard_normal((medium_graph.num_rows, 4))
        serial = csr_spmm_serial(medium_graph, vals, X)
        serial_sd = sddmm_serial(medium_graph, Xr, X)
        for workers in range(1, 6):
            with exec_workers(workers, min_parallel_nnz=0) as eng:
                np.testing.assert_array_equal(eng.spmm(medium_graph, vals, X), serial)
                np.testing.assert_array_equal(
                    eng.sddmm(medium_graph, Xr, X), serial_sd
                )

    def test_repeated_launches_stay_identical(self, medium_graph):
        """Later launches reuse the memoized shard plan and pooled buffers."""
        rng = np.random.default_rng(17)
        vals = rng.standard_normal(medium_graph.nnz)
        X = rng.standard_normal((medium_graph.num_cols, 8))
        serial = csr_spmm_serial(medium_graph, vals, X)
        with exec_workers(3, min_parallel_nnz=0) as eng:
            for _ in range(3):
                out = eng.spmm(medium_graph, vals, X)
                np.testing.assert_array_equal(out, serial)
                eng.release(out)

    def test_gat_alpha_equals_serial(self, medium_graph):
        rng = np.random.default_rng(5)
        coo = (
            medium_graph
            if medium_graph.is_csr_ordered()
            else medium_graph.sort_csr_order()
        )
        el = rng.standard_normal(coo.num_rows)
        er = rng.standard_normal(coo.num_cols)
        with exec_workers(3, min_parallel_nnz=0) as eng:
            alpha = eng.gat_alpha(coo, el, er)
        np.testing.assert_array_equal(alpha, gat_edge_softmax_serial(coo, el, er))



@st.composite
def graph_and_dim(draw):
    n = draw(st.integers(2, 40))
    nnz = draw(st.integers(0, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coo = COOMatrix.from_edges(
        n, n, rng.integers(0, n, nnz), rng.integers(0, n, nnz)
    )
    F = draw(st.sampled_from([1, 3, 8, 16]))
    return coo, F, rng


@pytest.fixture(scope="module", params=[3], ids=["thread"])
def backend_engine(request):
    """One thread-pool engine shared by every launch in TestBackendParity.

    Module scope keeps the pool, its memoized shard plans and pooled
    buffers alive across many graphs, unlike the per-test engines of
    TestBitIdentity.
    """
    eng = ExecutionEngine(request.param, min_parallel_nnz=0)
    yield eng
    eng.shutdown()


class TestBackendParity:
    """A long-lived engine must keep matching the serial numerics bit-for-bit."""

    @given(data=graph_and_dim())
    @settings(max_examples=15, deadline=None)
    def test_spmm_parity(self, backend_engine, data):
        coo, F, rng = data
        vals = rng.standard_normal(coo.nnz)
        X = rng.standard_normal((coo.num_cols, F))
        np.testing.assert_array_equal(
            backend_engine.spmm(coo, vals, X), csr_spmm_serial(coo, vals, X)
        )

    @given(data=graph_and_dim())
    @settings(max_examples=15, deadline=None)
    def test_sddmm_parity(self, backend_engine, data):
        coo, F, rng = data
        X = rng.standard_normal((coo.num_rows, F))
        Y = rng.standard_normal((coo.num_cols, F))
        np.testing.assert_array_equal(
            backend_engine.sddmm(coo, X, Y), sddmm_serial(coo, X, Y)
        )

    @given(data=graph_and_dim())
    @settings(max_examples=15, deadline=None)
    def test_spmv_parity(self, backend_engine, data):
        coo, _, rng = data
        vals = rng.standard_normal(coo.nnz)
        x = rng.standard_normal(coo.num_cols)
        np.testing.assert_array_equal(
            backend_engine.spmv(coo, vals, x), csr_spmm_serial(coo, vals, x)
        )

    def test_empty_graph(self, backend_engine):
        empty = COOMatrix.from_edges(5, 5, np.zeros(0, int), np.zeros(0, int))
        np.testing.assert_array_equal(
            backend_engine.spmm(empty, np.zeros(0), np.ones((5, 3))),
            np.zeros((5, 3)),
        )
        assert backend_engine.sddmm(empty, np.ones((5, 3)), np.ones((5, 3))).shape == (0,)

    def test_single_hub_row(self, backend_engine):
        nnz = 64
        coo = COOMatrix.from_edges(
            8, 8, np.zeros(nnz, int), np.arange(nnz, dtype=int) % 8
        )
        vals = np.linspace(0.5, 2.0, coo.nnz)
        X = np.arange(8.0 * 4).reshape(8, 4)
        np.testing.assert_array_equal(
            backend_engine.spmm(coo, vals, X), csr_spmm_serial(coo, vals, X)
        )

    def test_unsorted_sddmm(self, backend_engine):
        coo = COOMatrix(6, 6, np.array([4, 0, 2, 0, 3]), np.array([1, 3, 2, 0, 5]))
        assert not coo.is_csr_ordered()
        rng = np.random.default_rng(9)
        X = rng.standard_normal((6, 8))
        Y = rng.standard_normal((6, 8))
        np.testing.assert_array_equal(
            backend_engine.sddmm(coo, X, Y), sddmm_serial(coo, X, Y)
        )

    def test_training_parity(self, backend_engine):
        """A short GCN fit produces identical losses serial and sharded."""
        dataset = load_dataset("G0")
        data = synthesize(dataset, feature_length=16, seed=2)

        def fit():
            model = GCN(data.feature_length, 16, data.num_classes,
                        backend="gnnone", seed=1)
            return Trainer(model, GraphData(dataset.coo), data, lr=0.02).fit(2)

        serial = fit()
        with exec_workers(backend_engine.workers, min_parallel_nnz=0):
            parallel = fit()
        assert [r.loss for r in parallel.history] == [r.loss for r in serial.history]
        assert parallel.test_acc == serial.test_acc


class TestShardPlans:
    def test_blocks_cover_rows_disjointly(self, medium_graph):
        plan = build_row_shard_plan(medium_graph, 4)
        starts = plan.row_starts
        assert starts[0] == 0 and starts[-1] == medium_graph.num_rows
        assert (np.diff(starts) >= 0).all()
        assert plan.total_nnz == medium_graph.nnz

    def test_nnz_starts_follow_indptr(self, medium_graph):
        plan = build_row_shard_plan(medium_graph, 4)
        indptr, _, _ = medium_graph.csr_arrays()
        np.testing.assert_array_equal(
            plan.nnz_starts, np.asarray(indptr, dtype=np.int64)[plan.row_starts]
        )

    def test_imbalance_at_least_one(self, medium_graph, uniform_graph):
        for g in (medium_graph, uniform_graph):
            assert build_row_shard_plan(g, 4).imbalance >= 1.0
        # near-uniform degrees split near-perfectly
        assert build_row_shard_plan(uniform_graph, 4).imbalance < 1.2

    def test_plan_memoized_in_plancache(self, medium_graph):
        cache = get_plan_cache()
        p1 = row_shard_plan(medium_graph, 4)
        assert row_shard_plan(medium_graph, 4) is p1
        assert row_shard_plan(medium_graph, 2) is not p1
        shard_keys = [k for k in (
            ("", medium_graph.structure_token, "exec.row-shard", "shard", w, None)
            for w in (2, 4)
        ) if cache.lookup(k) is not None]
        assert len(shard_keys) == 2

    def test_plan_rebuilt_when_cache_disabled(self, medium_graph):
        set_plan_cache_enabled(False)
        try:
            p1 = row_shard_plan(medium_graph, 4)
            p2 = row_shard_plan(medium_graph, 4)
        finally:
            set_plan_cache_enabled(None)
        assert p1 is not p2
        np.testing.assert_array_equal(p1.row_starts, p2.row_starts)

    def test_nnz_balanced_row_blocks_basics(self):
        indptr = np.array([0, 10, 10, 11, 20])
        bounds = nnz_balanced_row_blocks(indptr, 2)
        assert bounds[0] == 0 and bounds[-1] == 4
        assert (np.diff(bounds) >= 0).all()
        with pytest.raises(ConfigError):
            nnz_balanced_row_blocks(indptr, 0)

    def test_more_workers_than_rows(self):
        coo = COOMatrix.from_edges(2, 2, [0, 1], [1, 0])
        plan = build_row_shard_plan(coo, 8)
        assert plan.row_starts[-1] == 2
        assert sum(b.nnz for b in plan.nonempty_blocks()) == coo.nnz

    def test_edge_range_bounds(self):
        bounds = edge_range_bounds(10, 3)
        assert bounds[0] == 0 and bounds[-1] == 10
        assert (np.diff(bounds) > 0).all()
        np.testing.assert_array_equal(edge_range_bounds(0, 4), np.zeros(5))


class TestBufferPool:
    def test_acquire_release_roundtrip(self):
        pool = BufferPool()
        a = pool.acquire((4, 3))
        a[:] = 7.0
        assert pool.release(a)
        b = pool.acquire((4, 3))
        assert b is a                      # reused...
        np.testing.assert_array_equal(b, np.zeros((4, 3)))  # ...and re-zeroed

    def test_refuses_foreign_and_view_arrays(self):
        pool = BufferPool()
        assert not pool.release(np.zeros((2, 2)))      # never issued
        buf = pool.acquire((4, 4))
        assert not pool.release(buf[:2])               # view, not the base
        assert pool.release(buf)
        assert not pool.release(buf)                   # double release

    def test_free_list_bounded(self):
        pool = BufferPool(max_free_per_shape=1)
        a, b = pool.acquire((3,)), pool.acquire((3,))
        assert pool.release(a)
        assert not pool.release(b)         # free list full for this shape

    def test_engine_release_of_parallel_output(self, medium_graph, rng):
        vals = rng.standard_normal(medium_graph.nnz)
        X = rng.standard_normal((medium_graph.num_cols, 8))
        with exec_workers(4, min_parallel_nnz=0) as eng:
            out = eng.spmm(medium_graph, vals, X)
            assert eng.release(out)
            out2 = eng.spmm(medium_graph, vals, X)
            assert out2 is out             # pooled buffer reused


class TestEngineConfig:
    def test_default_is_serial(self, repro_env):
        repro_env(REPRO_EXEC_WORKERS=None)
        assert resolve_workers() == 1
        assert ExecutionEngine().workers == 1

    def test_env_worker_count(self, repro_env):
        repro_env(REPRO_EXEC_WORKERS="4")
        assert resolve_workers() == 4
        assert ExecutionEngine().workers == 4

    def test_env_rejects_garbage(self, repro_env):
        with pytest.raises(ConfigError, match="REPRO_EXEC_WORKERS"):
            repro_env(REPRO_EXEC_WORKERS="many")
        with pytest.raises(ConfigError, match="REPRO_EXEC_WORKERS"):
            repro_env(REPRO_EXEC_WORKERS="-2")

    def test_zero_means_serial(self, repro_env):
        repro_env(REPRO_EXEC_WORKERS="0")
        assert resolve_workers() == 1

    def test_min_nnz_keeps_small_launches_serial(self, rng):
        coo = COOMatrix.from_edges(10, 10, rng.integers(0, 10, 20),
                                   rng.integers(0, 10, 20))
        vals = rng.standard_normal(coo.nnz)
        X = rng.standard_normal((10, 4))
        obs.reset_metrics()
        with exec_workers(4):              # default threshold: 4096 NZEs
            get_engine().spmm(coo, vals, X)
        counters = obs.get_metrics().snapshot()["counters"]
        assert counters.get("exec.launch.serial", 0) == 1
        assert counters.get("exec.launch.parallel", 0) == 0
        assert ExecutionEngine(4).min_parallel_nnz == DEFAULT_MIN_PARALLEL_NNZ

    def test_set_exec_workers_replaces_global(self):
        base = get_engine()
        try:
            set_exec_workers(3)
            assert get_engine().workers == 3
        finally:
            set_exec_workers(base.workers)

    def test_exec_workers_restores_previous_engine(self):
        before = get_engine()
        with exec_workers(4):
            assert get_engine().workers == 4
        assert get_engine() is before


class TestFanout:
    def test_parallel_launch_metrics_and_spans(self, medium_graph, rng):
        vals = rng.standard_normal(medium_graph.nnz)
        X = rng.standard_normal((medium_graph.num_cols, 8))
        obs.reset_metrics()
        with exec_workers(4, min_parallel_nnz=0):
            with obs.capture() as records:
                get_engine().spmm(medium_graph, vals, X)
        (par,) = [r for r in records if r["name"] == "exec.parallel"]
        shards = [r for r in records if r["name"] == "exec.shard"]
        assert par["attrs"]["workers"] == 4
        assert par["attrs"]["shards"] == len(shards)
        assert par["attrs"]["shard_imbalance"] >= 1.0
        assert {s["attrs"]["shard"] for s in shards} == set(range(len(shards)))
        # the thread pool names its workers repro-exec-N
        assert all(s["attrs"]["worker"].startswith("repro-exec") for s in shards)
        counters = obs.get_metrics().snapshot()["counters"]
        assert counters["exec.launch.parallel"] == 1

    def test_workers_gauge_tracks_engine(self):
        with exec_workers(3):
            gauges = obs.get_metrics().snapshot()["gauges"]
            assert gauges["exec.workers"] == 3

    def test_map_preserves_order(self):
        with exec_workers(4):
            out = get_engine().map(lambda i: i * i, range(20))
        assert out == [i * i for i in range(20)]

    def test_map_serial_fallbacks(self):
        with exec_workers(1):
            assert get_engine().map(lambda i: -i, [3, 1]) == [-3, -1]
        with exec_workers(4):
            assert get_engine().map(lambda i: -i, [5]) == [-5]

    def test_nested_parallelism_degrades_not_deadlocks(self, medium_graph, rng):
        """map() points that launch sharded kernels must not deadlock."""
        vals = rng.standard_normal(medium_graph.nnz)
        X = rng.standard_normal((medium_graph.num_cols, 4))
        serial = csr_spmm_serial(medium_graph, vals, X)

        def point(_):
            return get_engine().spmm(medium_graph, vals, X)

        with exec_workers(2, min_parallel_nnz=0):
            outs = get_engine().map(point, range(4))
        for out in outs:
            np.testing.assert_array_equal(out, serial)

    def test_map_propagates_exceptions(self):
        def boom(i):
            if i == 3:
                raise ValueError("bad point")
            return i

        with exec_workers(4):
            with pytest.raises(ValueError, match="bad point"):
                get_engine().map(boom, range(6))


class TestKernelAndTrainerIntegration:
    def test_kernel_outputs_and_times_identical(self, medium_graph, rng):
        vals = rng.standard_normal(medium_graph.nnz)
        X = rng.standard_normal((medium_graph.num_cols, 16))
        x = rng.standard_normal(medium_graph.num_cols)
        Xr = rng.standard_normal((medium_graph.num_rows, 16))
        serial = {
            "spmm": GnnOneSpMM()(medium_graph, vals, X),
            "sddmm": GnnOneSDDMM()(medium_graph, Xr, X),
            "spmv": GnnOneSpMV()(medium_graph, vals, x),
        }
        with exec_workers(4, min_parallel_nnz=0):
            parallel = {
                "spmm": GnnOneSpMM()(medium_graph, vals, X),
                "sddmm": GnnOneSDDMM()(medium_graph, Xr, X),
                "spmv": GnnOneSpMV()(medium_graph, vals, x),
            }
        for kind in serial:
            np.testing.assert_array_equal(
                parallel[kind].output, serial[kind].output
            )
            # simulated device time never depends on host-side sharding
            assert parallel[kind].time_us == serial[kind].time_us

    def test_training_identical_serial_vs_parallel(self):
        dataset = load_dataset("G0")
        data = synthesize(dataset, feature_length=16, seed=2)

        def fit():
            model = GCN(data.feature_length, 16, data.num_classes,
                        backend="gnnone", seed=1)
            return Trainer(model, GraphData(dataset.coo), data, lr=0.02).fit(3)

        serial = fit()
        with exec_workers(4, min_parallel_nnz=0):
            parallel = fit()
        assert [r.loss for r in parallel.history] == [r.loss for r in serial.history]
        assert [r.sim_us for r in parallel.history] == [r.sim_us for r in serial.history]
        assert parallel.test_acc == serial.test_acc

    def test_graph_warm_is_idempotent_and_covers_structures(self, medium_graph):
        g = GraphData(medium_graph)
        assert g.warm() is g
        assert "coo_t" in g.__dict__ and "transpose_perm" in g.__dict__
        assert g.coo._csr_arrays is not None
        assert g.coo_t._csr_arrays is not None
        g.warm()                            # second call is a no-op

    def test_trainer_fit_emits_warm_span(self):
        dataset = load_dataset("G0")
        data = synthesize(dataset, feature_length=8, seed=3)
        model = GCN(data.feature_length, 8, data.num_classes, seed=1)
        with obs.capture() as records:
            Trainer(model, GraphData(dataset.coo), data).fit(1)
        assert any(r["name"] == "train.warm" for r in records)


class TestConcurrentPlanCache:
    def test_concurrent_lookup_store_stress(self):
        """Hammer one small cache from many threads; LRU stays coherent."""
        from repro.core.plancache import CachedLaunch, PlanCache, plan_key
        from repro.gpusim import A100

        cache = PlanCache(capacity=8)
        entry = CachedLaunch(cost=None, trace=None)
        keys = [plan_key(f"t{i}", "k", "spmm", 8, A100) for i in range(32)]
        errors = []
        barrier = threading.Barrier(8)

        def worker(seed):
            rng = np.random.default_rng(seed)
            barrier.wait()
            try:
                for _ in range(300):
                    k = keys[rng.integers(len(keys))]
                    if rng.random() < 0.5:
                        cache.store(k, entry)
                    else:
                        found = cache.lookup(k)
                        assert found is None or found is entry
            except Exception as e:          # pragma: no cover - failure path
                errors.append(e)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 8
        assert cache.hits + cache.misses > 0

    def test_concurrent_kernel_launches_share_cache(self, medium_graph, rng):
        """Real kernels fired from engine.map: one miss, rest hits."""
        vals = rng.standard_normal(medium_graph.nnz)
        X = rng.standard_normal((medium_graph.num_cols, 8))
        kernel = GnnOneSpMM()
        expected = csr_spmm_serial(medium_graph, vals, X)
        with exec_workers(4):
            outs = get_engine().map(
                lambda _: kernel(medium_graph, vals, X).output, range(8)
            )
        for out in outs:
            np.testing.assert_array_equal(out, expected)
        cache = get_plan_cache()
        assert cache.hits + cache.misses >= 8


class TestForkSafety:
    def test_forked_child_gets_fresh_engine(self, medium_graph):
        if not hasattr(os, "fork"):
            pytest.skip("no fork on this platform")
        rng = np.random.default_rng(47)
        vals = rng.standard_normal(medium_graph.nnz)
        X = rng.standard_normal((medium_graph.num_cols, 4))
        serial = csr_spmm_serial(medium_graph, vals, X)
        with exec_workers(3, min_parallel_nnz=0):
            eng = get_engine()
            np.testing.assert_array_equal(eng.spmm(medium_graph, vals, X), serial)
            pid = os.fork()
            if pid == 0:
                # Child: the at-fork hook must have dropped the inherited
                # engine; a fresh (env-resolved, serial) one must produce
                # the same bits without deadlocking on stale locks.
                try:
                    child_eng = get_engine()
                    ok = child_eng is not eng and np.array_equal(
                        child_eng.spmm(medium_graph, vals, X), serial
                    )
                    os._exit(0 if ok else 1)
                except BaseException:
                    os._exit(2)
            _, status = os.waitpid(pid, 0)
            assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
            # Parent state survives the fork untouched.
            np.testing.assert_array_equal(eng.spmm(medium_graph, vals, X), serial)

