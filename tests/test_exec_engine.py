"""Execution engine surroundings: graph warm-up, concurrent plan-cache use, fork safety."""

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import obs
from repro.core import get_plan_cache
from repro.exec import get_engine
from repro.exec.numerics import csr_spmm_serial
from repro.kernels.gnnone import GnnOneSpMM
from repro.nn import GCN, GraphData, Trainer, synthesize
from repro.resilience import no_faults
from repro.sparse.datasets import load_dataset


@pytest.fixture(autouse=True)
def _no_faults(_fresh_injector):
    """Exact plan-cache assertions need a fault-free run."""
    with no_faults():
        yield


class TestKernelAndTrainerIntegration:
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
        assert len(cache._entries) <= 8
        assert cache.hits + cache.misses > 0

    def test_concurrent_kernel_launches_share_cache(self, medium_graph, rng):
        """Kernels launched from executor threads, as the inference service
        does, share one plan-cache entry and keep the serial numerics."""
        vals = rng.standard_normal(medium_graph.nnz)
        X = rng.standard_normal((medium_graph.num_cols, 8))
        kernel = GnnOneSpMM()
        expected = csr_spmm_serial(medium_graph, vals, X)
        with ThreadPoolExecutor(max_workers=4) as pool:
            outs = list(pool.map(
                lambda _: kernel(medium_graph, vals, X).output, range(8)
            ))
        for out in outs:
            np.testing.assert_array_equal(out, expected)
        cache = get_plan_cache()
        assert cache.hits + cache.misses >= 8
        assert cache.hits >= 1


class TestForkSafety:
    def test_forked_child_launches_after_threaded_parent(self, medium_graph):
        """A child forked while executor threads exist launches normally."""
        if not hasattr(os, "fork"):
            pytest.skip("no fork on this platform")
        rng = np.random.default_rng(47)
        vals = rng.standard_normal(medium_graph.nnz)
        X = rng.standard_normal((medium_graph.num_cols, 4))
        kernel = GnnOneSpMM()
        serial = csr_spmm_serial(medium_graph, vals, X)
        with ThreadPoolExecutor(max_workers=2) as pool:
            # Warm the plan cache from a worker thread, then fork while
            # the pool's threads are still alive.
            pool.submit(kernel, medium_graph, vals, X).result()
            pid = os.fork()
            if pid == 0:
                # Child: the at-fork hook gave it fresh plan-cache and
                # injector locks; a warm launch must produce the same
                # bits without deadlocking on a lock held by a thread
                # that did not survive the fork.
                try:
                    ok = np.array_equal(kernel(medium_graph, vals, X).output, serial)
                    os._exit(0 if ok else 1)
                except BaseException:
                    os._exit(2)
            _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
        # Parent state survives the fork untouched.
        np.testing.assert_array_equal(get_engine().spmm(medium_graph, vals, X), serial)


def test_launch_fit_and_sweep_start_no_threads(medium_graph, rng):
    """The numerics are serial: nothing on the kernel, training or sweep
    path leaves a thread behind (or needs one)."""
    from repro.bench import run_experiment

    before = set(threading.enumerate())
    vals = rng.standard_normal(medium_graph.nnz)
    GnnOneSpMM()(medium_graph, vals, rng.standard_normal((medium_graph.num_cols, 8)))
    dataset = load_dataset("G0")
    data = synthesize(dataset, feature_length=8, seed=3)
    model = GCN(data.feature_length, 8, data.num_classes, backend="gnnone", seed=1)
    Trainer(model, GraphData(dataset.coo), data).fit(2)
    run_experiment("fig04", quick=True)
    # a thread left over from an earlier test may end meanwhile; none may start
    assert set(threading.enumerate()) <= before
