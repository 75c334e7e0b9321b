"""Structural plan cache: replay fidelity, key invalidation, fast paths."""

import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings

from repro import obs
from repro.core import autotune, clear_plan_cache, get_plan_cache
from repro.core.plancache import MEMO_CAPACITY, CachedLaunch, PlanCache, plan_key
from repro.exec import get_engine
from repro.gpusim import A100, V100
from repro.kernels.base import reference_spmm
from repro.kernels.gnnone import GnnOneConfig, GnnOneSDDMM, GnnOneSpMM
from repro.kernels.registry import sddmm_kernel, spmm_kernel
from repro.resilience import no_faults
from repro.sparse import COOMatrix
from tests.oracles import graph_and_dim, operands, segment_sum_spmm


@pytest.fixture(autouse=True)
def _no_faults(_fresh_injector):
    """Exact hit/miss/eviction assertions need a fault-free cache."""
    with no_faults():
        yield


#: widths the replay tests draw
PLAN_WIDTHS = (1, 4, 8, 16, 32)


def _cost_fields(cost):
    """CostReport flattened to primitives for field-by-field comparison."""
    return dataclasses.asdict(cost)


class TestReplayFidelity:
    @given(data=graph_and_dim(PLAN_WIDTHS))
    @settings(max_examples=25, deadline=None)
    def test_warm_cost_report_equals_fresh_simulation(self, data):
        """A cache hit replays exactly what a from-scratch run computes."""
        coo, F, rng = data
        vals = rng.standard_normal(coo.nnz)
        X = rng.standard_normal((coo.num_cols, F))
        kernel = GnnOneSpMM()
        clear_plan_cache()
        kernel(coo, vals, X)                      # cold: populates the cache
        warm = kernel(coo, vals, X)               # hit: replays cost/trace
        clear_plan_cache()
        fresh = kernel(coo, vals, X)              # full simulation again
        assert _cost_fields(warm.cost) == _cost_fields(fresh.cost)
        assert warm.time_us == fresh.time_us
        np.testing.assert_array_equal(warm.output, fresh.output)

    @given(data=graph_and_dim(PLAN_WIDTHS))
    @settings(max_examples=25, deadline=None)
    def test_warm_numerics_track_fresh_inputs(self, data):
        """Hits recompute numerics from the actual operands, not the cache."""
        coo, F, rng = data
        kernel = GnnOneSpMM()
        vals1 = rng.standard_normal(coo.nnz)
        X1 = rng.standard_normal((coo.num_cols, F))
        first = kernel(coo, vals1, X1)
        vals2 = rng.standard_normal(coo.nnz)
        X2 = rng.standard_normal((coo.num_cols, F))
        second = kernel(coo, vals2, X2)           # warm launch, new values
        assert second.time_us == first.time_us    # structural replay...
        np.testing.assert_allclose(               # ...fresh numerics
            second.output, reference_spmm(coo, vals2, X2), atol=1e-9
        )

    def test_hit_skips_simulation_spans_and_marks_cached(self, small_graph, rng):
        vals = rng.standard_normal(small_graph.nnz)
        X = rng.standard_normal((small_graph.num_cols, 16))
        kernel = GnnOneSpMM()
        kernel(small_graph, vals, X)
        with obs.capture() as records:
            kernel(small_graph, vals, X)
        names = {r["name"] for r in records}
        assert "gnnone.stage1" not in names
        assert "gnnone.schedule" not in names
        (kernel_span,) = [r for r in records if r["name"] == "kernel.spmm"]
        assert kernel_span["attrs"]["cached"] is True

    def test_cold_call_is_marked_uncached(self, small_graph, rng):
        vals = rng.standard_normal(small_graph.nnz)
        X = rng.standard_normal((small_graph.num_cols, 16))
        with obs.capture() as records:
            GnnOneSpMM()(small_graph, vals, X)
        (kernel_span,) = [r for r in records if r["name"] == "kernel.spmm"]
        assert kernel_span["attrs"]["cached"] is False
        assert "gnnone.stage1" in {r["name"] for r in records}

    def test_hit_and_miss_counters(self, small_graph, rng):
        vals = rng.standard_normal(small_graph.nnz)
        X = rng.standard_normal((small_graph.num_cols, 8))
        kernel = GnnOneSpMM()
        with obs.capture() as records:
            for _ in range(4):
                kernel(small_graph, vals, X)
        cache = get_plan_cache()
        assert (cache.hits, cache.misses) == (3, 1)
        assert obs.plan_cache_summary(records) == (3, 4)


class TestKeyInvalidation:
    def _misses_for(self, calls):
        cache = get_plan_cache()
        before = cache.misses
        for call in calls:
            call()
        return cache.misses - before

    def test_config_change_invalidates(self, small_graph, rng):
        vals = rng.standard_normal(small_graph.nnz)
        X = rng.standard_normal((small_graph.num_cols, 8))
        a = GnnOneSpMM(GnnOneConfig(cache_size=64))
        b = GnnOneSpMM(GnnOneConfig(cache_size=128))
        misses = self._misses_for([
            lambda: a(small_graph, vals, X), lambda: b(small_graph, vals, X)
        ])
        assert misses == 2

    def test_ablation_switch_invalidates_despite_same_name(self, small_graph, rng):
        """Display names omit ablation flags; the key must not."""
        vals = rng.standard_normal(small_graph.nnz)
        X = rng.standard_normal((small_graph.num_cols, 8))
        a = GnnOneSpMM(GnnOneConfig(enable_nze_cache=True))
        b = GnnOneSpMM(GnnOneConfig(enable_nze_cache=False))
        assert a.name == b.name
        misses = self._misses_for([
            lambda: a(small_graph, vals, X), lambda: b(small_graph, vals, X)
        ])
        assert misses == 2

    def test_feature_length_invalidates(self, small_graph, rng):
        vals = rng.standard_normal(small_graph.nnz)
        kernel = GnnOneSpMM()
        misses = self._misses_for([
            lambda f=f: kernel(small_graph, vals,
                               rng.standard_normal((small_graph.num_cols, f)))
            for f in (8, 16)
        ])
        assert misses == 2

    def test_device_invalidates(self, small_graph, rng):
        vals = rng.standard_normal(small_graph.nnz)
        X = rng.standard_normal((small_graph.num_cols, 8))
        kernel = GnnOneSpMM()
        misses = self._misses_for([
            lambda: kernel(small_graph, vals, X, device=A100),
            lambda: kernel(small_graph, vals, X, device=V100),
        ])
        assert misses == 2

    def test_topology_invalidates(self, rng):
        a = COOMatrix.from_edges(6, 6, [0, 1, 2], [1, 2, 3])
        b = COOMatrix.from_edges(6, 6, [0, 1, 2], [1, 2, 4])
        assert a.structure_token != b.structure_token
        X = rng.standard_normal((6, 8))
        kernel = GnnOneSpMM()
        misses = self._misses_for([
            lambda: kernel(a, np.ones(a.nnz), X),
            lambda: kernel(b, np.ones(b.nnz), X),
        ])
        assert misses == 2

    def test_distinct_kernels_never_share_entries(self, small_graph, rng):
        vals = rng.standard_normal(small_graph.nnz)
        X = rng.standard_normal((small_graph.num_cols, 8))
        misses = self._misses_for([
            lambda name=name: spmm_kernel(name)(small_graph, vals, X)
            for name in ("gnnone", "dgl", "cusparse")
        ])
        assert misses == 3


class TestPlanCacheLRU:
    def test_capacity_bound_and_eviction_order(self):
        cache = PlanCache(capacity=2)
        entry = CachedLaunch(cost=None, trace=None)
        keys = [plan_key(f"t{i}", "k", "spmm", 8, A100) for i in range(3)]
        for k in keys:
            cache.store(k, entry)
        assert len(cache._entries) == 2
        assert cache.lookup(keys[0]) is None      # oldest evicted
        assert cache.lookup(keys[2]) is entry

    def test_lookup_refreshes_recency(self):
        cache = PlanCache(capacity=2)
        entry = CachedLaunch(cost=None, trace=None)
        k0, k1, k2 = (plan_key(f"t{i}", "k", "spmm", 8, A100) for i in range(3))
        cache.store(k0, entry)
        cache.store(k1, entry)
        cache.lookup(k0)                          # k0 now most recent
        cache.store(k2, entry)                    # evicts k1, not k0
        assert cache.lookup(k0) is entry
        assert cache.lookup(k1) is None

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)


class TestAutotuneMemo:
    """Tuning keeps no memo of its own: a repeat search replays the plan cache."""

    def test_tune_result_memoized_per_structure(self, small_graph):
        r1 = autotune(small_graph, 16, "spmm")
        cache = get_plan_cache()
        hits, misses = cache.hits, cache.misses
        assert autotune(small_graph, 16, "spmm") == r1
        assert (cache.hits - hits, cache.misses - misses) == (8, 0)

    def test_memo_respects_kind_and_feature_length(self, small_graph):
        spmm16 = autotune(small_graph, 16, "spmm")
        misses = get_plan_cache().misses
        assert autotune(small_graph, 32, "spmm").trials != spmm16.trials
        assert autotune(small_graph, 16, "sddmm").trials != spmm16.trials
        assert get_plan_cache().misses == misses + 16  # no trial is shared

    def test_cleared_memo_retunes_to_the_same_result(self, small_graph):
        r1 = autotune(small_graph, 16, "spmm")
        clear_plan_cache()
        r2 = autotune(small_graph, 16, "spmm")   # a fresh search, fresh simulations
        assert r2 is not r1
        assert r2 == r1


class TestTuneCacheBounds:
    def test_thread_safety_under_concurrent_tuning(self, small_graph):
        results, errors = [], []

        def work():
            try:
                results.append(autotune(small_graph, 8, "spmm"))
            except Exception as e:  # pragma: no cover - failure path
                errors.append(e)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors and len(results) == 8
        assert len({r.config for r in results}) == 1
        assert len({tuple(r.trials.items()) for r in results}) == 1

    def test_cache_hit_events_surfaced(self, small_graph, tmp_path):
        """A repeat search shows in the trace as eight plan-cache hits."""
        trace = tmp_path / "t.jsonl"
        with obs.trace_to(trace):
            autotune(small_graph, 8, "spmm")
            autotune(small_graph, 8, "spmm")
        assert obs.plan_cache_summary(obs.read_trace(trace)) == (8, 16)


class TestStructuralMemos:
    def test_sort_csr_order_memoized(self):
        coo = COOMatrix.from_edges(5, 5, [3, 1, 0], [0, 2, 4], deduplicate=False)
        unsorted = COOMatrix(5, 5, coo.rows[::-1].copy(), coo.cols[::-1].copy())
        assert not unsorted.is_csr_ordered()
        s1 = unsorted.sort_csr_order()
        s2 = unsorted.sort_csr_order()
        assert s2 is s1
        assert s1.is_csr_ordered()
        assert s1.sort_csr_order() is s1

    def test_csr_order_memoized(self):
        unsorted = COOMatrix(4, 4, np.array([2, 0, 1]), np.array([1, 3, 0]))
        assert unsorted.csr_order() is unsorted.csr_order()

    def test_structure_token_distinguishes_shape(self):
        a = COOMatrix.from_edges(4, 4, [0, 1], [1, 2])
        b = COOMatrix.from_edges(5, 4, [0, 1], [1, 2])
        assert a.structure_token != b.structure_token
        same = COOMatrix.from_edges(4, 4, [0, 1], [1, 2])
        assert same.structure_token == a.structure_token

    @given(data=graph_and_dim(PLAN_WIDTHS))
    @settings(max_examples=25, deadline=None)
    def test_csr_replay_spmm_matches_segment_sum(self, data):
        """The fast warm-path numerics pin to the validation-grade mirror."""
        coo, F, rng = data
        vals = rng.standard_normal(coo.nnz)
        X = rng.standard_normal((coo.num_cols, F))
        np.testing.assert_allclose(
            get_engine().spmm(coo, vals, X),
            segment_sum_spmm(coo, vals, X),
            rtol=1e-12, atol=1e-12,
        )

    def test_csr_arrays_memoized_and_consistent(self):
        unsorted = COOMatrix(4, 4, np.array([2, 0, 1]), np.array([1, 3, 0]))
        indptr, cols, perm = unsorted.csr_arrays()
        assert unsorted.csr_arrays() is unsorted.csr_arrays()
        assert perm is not None
        np.testing.assert_array_equal(indptr, [0, 1, 2, 3, 3])
        np.testing.assert_array_equal(cols, unsorted.cols[perm])


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _memo_counters():
    cache = get_plan_cache()
    return cache.memo_hits, cache.memo_misses


def _spmm(A, vals, X):
    """The SpMM output every kernel's ``compute`` returns."""
    return GnnOneSpMM().compute(A, vals, X)


def _sddmm(A, X, Y):
    return GnnOneSDDMM().compute(A, X, Y)


class TestReferenceMemo:
    """One kernel output per read-only operand set until the cache clears."""

    def test_read_only_operands_hit(self, small_graph, rng):
        vals, X = _read_only(
            rng.standard_normal(small_graph.nnz),
            rng.standard_normal((small_graph.num_cols, 8)),
        )
        Xr, = _read_only(rng.standard_normal((small_graph.num_rows, 8)))
        first = spmm_kernel("gnnone")(small_graph, vals, X).output
        second = spmm_kernel("cusparse")(small_graph, vals, X).output
        assert _memo_counters() == (1, 1)
        np.testing.assert_array_equal(first, second)
        assert first is not second and second.flags.writeable
        sddmm_kernel("gnnone")(small_graph, Xr, X)
        sd = sddmm_kernel("dgl")(small_graph, Xr, X).output
        assert _memo_counters() == (2, 2)
        np.testing.assert_array_equal(sd, get_engine().sddmm(small_graph, Xr, X))
        np.testing.assert_allclose(
            sd, np.einsum("ef,ef->e", Xr[small_graph.rows], X[small_graph.cols])
        )

    def test_mutated_writeable_operand_recomputes(self, small_graph, rng):
        vals = rng.standard_normal(small_graph.nnz)
        X = rng.standard_normal((small_graph.num_cols, 4))
        before = _spmm(small_graph, vals, X)
        X *= 2.0
        after = _spmm(small_graph, vals, X)
        np.testing.assert_allclose(after, 2.0 * before)
        assert _memo_counters() == (0, 0)
        assert len(get_plan_cache()._memo) == 0

    def test_read_only_view_of_writeable_base_is_not_memoized(self, small_graph, rng):
        base = rng.standard_normal((small_graph.num_cols, 4))
        view = base[:, :]
        view.setflags(write=False)
        vals, = _read_only(rng.standard_normal(small_graph.nnz))
        before = _spmm(small_graph, vals, view)
        base[:] = 0.0
        np.testing.assert_array_equal(
            _spmm(small_graph, vals, view), np.zeros_like(before)
        )
        assert len(get_plan_cache()._memo) == 0

    def test_mutating_a_returned_array_does_not_leak(self, small_graph, rng):
        Xr, Yc = _read_only(
            rng.standard_normal((small_graph.num_rows, 4)),
            rng.standard_normal((small_graph.num_cols, 4)),
        )
        first = _sddmm(small_graph, Xr, Yc)
        expect = first.copy()
        first[:] = np.nan
        second = _sddmm(small_graph, Xr, Yc)
        np.testing.assert_array_equal(second, expect)
        second[:] = np.nan
        np.testing.assert_array_equal(_sddmm(small_graph, Xr, Yc), expect)

    def test_memo_stays_at_its_bound(self, small_graph, rng):
        vals, = _read_only(rng.standard_normal(small_graph.nnz))
        operands = [
            _read_only(rng.standard_normal((small_graph.num_cols, 2)))[0]
            for _ in range(MEMO_CAPACITY + 3)
        ]
        for X in operands:
            _spmm(small_graph, vals, X)
            assert len(get_plan_cache()._memo) <= MEMO_CAPACITY
        assert len(get_plan_cache()._memo) == MEMO_CAPACITY
        hits, misses = _memo_counters()
        _spmm(small_graph, vals, operands[0])      # evicted: recompute
        _spmm(small_graph, vals, operands[-1])     # most recent: hit
        assert _memo_counters() == (hits + 1, misses + 1)

    def test_clear_plan_cache_empties_the_memo(self, small_graph, rng):
        vals, X = _read_only(
            rng.standard_normal(small_graph.nnz),
            rng.standard_normal((small_graph.num_cols, 4)),
        )
        _spmm(small_graph, vals, X)
        assert len(get_plan_cache()._memo) == 1
        clear_plan_cache()
        assert len(get_plan_cache()._memo) == 0
        assert _memo_counters() == (0, 0)
        _spmm(small_graph, vals, X)
        assert _memo_counters() == (0, 1)

    def test_concurrent_references_stay_exact_and_bounded(self, small_graph, rng):
        """More threads than cores, more operand sets than slots, and clears."""
        vals, = _read_only(rng.standard_normal(small_graph.nnz))
        sets = [
            _read_only(rng.standard_normal((small_graph.num_cols, 3)))[0]
            for _ in range(MEMO_CAPACITY + 4)
        ]
        expected = [_spmm(small_graph, vals, X.copy()) for X in sets]
        errors, barrier = [], threading.Barrier(8)

        def worker(seed):
            pick = np.random.default_rng(seed)
            barrier.wait()
            try:
                for step in range(150):
                    i = int(pick.integers(len(sets)))
                    got = _spmm(small_graph, vals, sets[i])
                    assert np.array_equal(got, expected[i])
                    got[:] = np.nan  # must not reach any other caller
                    if step % 50 == 49:
                        clear_plan_cache()
            except Exception as e:          # pragma: no cover - failure path
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len(get_plan_cache()._memo) <= MEMO_CAPACITY

    def test_identity_slot_rejects_a_different_object(self):
        cache = PlanCache()
        a, b = np.zeros(3), np.zeros(3)
        cache.memo_store(("k",), (a,), "value")
        assert cache.memo_lookup(("k",), (a,)) == "value"
        assert cache.memo_lookup(("k",), (b,)) is None
