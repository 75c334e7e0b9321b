"""Property-based tests: kernel numerics and cost-model invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import A100
from repro.kernels.base import reference_sddmm, reference_spmm
from repro.kernels.gnnone import (
    CONSECUTIVE,
    ROUND_ROBIN,
    GnnOneConfig,
    GnnOneSDDMM,
    GnnOneSpMM,
)
from repro.kernels.registry import sddmm_kernel, spmm_kernel
from repro.sparse import COOMatrix
from tests.oracles import to_dense


@st.composite
def graph_and_dim(draw):
    n = draw(st.integers(2, 30))
    nnz = draw(st.integers(1, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, n, nnz)
    cols = rng.integers(0, n, nnz)
    coo = COOMatrix.from_edges(n, n, rows, cols)
    F = draw(st.sampled_from([1, 3, 6, 8, 16, 32, 48]))
    return coo, F, rng


class TestKernelNumericsProperties:
    @given(data=graph_and_dim())
    @settings(max_examples=40, deadline=None)
    def test_gnnone_spmm_equals_dense_reference(self, data):
        coo, F, rng = data
        vals = rng.standard_normal(coo.nnz)
        X = rng.standard_normal((coo.num_cols, F))
        got = GnnOneSpMM()(coo, vals, X).output
        want = to_dense(coo, vals) @ X
        np.testing.assert_allclose(got, want, atol=1e-9)

    @given(data=graph_and_dim())
    @settings(max_examples=40, deadline=None)
    def test_gnnone_sddmm_equals_dense_reference(self, data):
        coo, F, rng = data
        X = rng.standard_normal((coo.num_rows, F))
        Y = rng.standard_normal((coo.num_cols, F))
        got = GnnOneSDDMM()(coo, X, Y).output
        dense = X @ Y.T
        want = dense[coo.rows, coo.cols]
        np.testing.assert_allclose(got, want, atol=1e-9)

    @given(data=graph_and_dim(), cache=st.sampled_from([32, 64, 128, 256]),
           sched=st.sampled_from([CONSECUTIVE, ROUND_ROBIN]))
    @settings(max_examples=30, deadline=None)
    def test_config_never_changes_numerics(self, data, cache, sched):
        coo, F, rng = data
        vals = rng.standard_normal(coo.nnz)
        X = rng.standard_normal((coo.num_cols, F))
        cfg = GnnOneConfig(cache_size=cache, schedule=sched)
        got = GnnOneSpMM(cfg)(coo, vals, X).output
        np.testing.assert_allclose(got, reference_spmm(coo, vals, X), atol=1e-9)

    @given(data=graph_and_dim(),
           name=st.sampled_from(["ge-spmm", "cusparse", "huang", "gnnadvisor",
                                 "featgraph", "yang-nzsplit"]))
    @settings(max_examples=30, deadline=None)
    def test_baseline_spmm_agrees(self, data, name):
        coo, F, rng = data
        vals = rng.standard_normal(coo.nnz)
        X = rng.standard_normal((coo.num_cols, F))
        got = spmm_kernel(name)(coo, vals, X).output
        np.testing.assert_allclose(got, reference_spmm(coo, vals, X), atol=1e-9)

    @given(data=graph_and_dim(),
           name=st.sampled_from(["dgl", "dgsparse", "featgraph", "cusparse"]))
    @settings(max_examples=30, deadline=None)
    def test_baseline_sddmm_agrees(self, data, name):
        coo, F, rng = data
        X = rng.standard_normal((coo.num_rows, F))
        Y = rng.standard_normal((coo.num_cols, F))
        got = sddmm_kernel(name)(coo, X, Y).output
        np.testing.assert_allclose(got, reference_sddmm(coo, X, Y), atol=1e-9)


class TestCostModelProperties:
    @given(data=graph_and_dim())
    @settings(max_examples=30, deadline=None)
    def test_cost_is_positive_and_finite(self, data):
        coo, F, rng = data
        vals = rng.standard_normal(coo.nnz)
        X = rng.standard_normal((coo.num_cols, F))
        rep = GnnOneSpMM()(coo, vals, X).cost
        assert np.isfinite(rep.time_us) and rep.time_us > 0
        assert rep.dram_bytes >= 0
        assert rep.sm_imbalance >= 1.0 - 1e-9

    @given(data=graph_and_dim())
    @settings(max_examples=20, deadline=None)
    def test_load_restriction_never_exceeds_total(self, data):
        from repro.gpusim.cost import estimate_cost

        coo, F, rng = data
        vals = rng.standard_normal(coo.nnz)
        X = rng.standard_normal((coo.num_cols, F))
        res = GnnOneSpMM()(coo, vals, X)
        load = estimate_cost(res.trace, A100, phase_kinds=("load",))
        assert load.time_us <= res.time_us + 1e-9

    @given(data=graph_and_dim())
    @settings(max_examples=20, deadline=None)
    def test_traffic_scales_with_feature_length(self, data):
        coo, _, rng = data
        vals = rng.standard_normal(coo.nnz)
        small = GnnOneSpMM()(coo, vals, rng.standard_normal((coo.num_cols, 8)))
        big = GnnOneSpMM()(coo, vals, rng.standard_normal((coo.num_cols, 64)))
        assert big.cost.dram_bytes > small.cost.dram_bytes
