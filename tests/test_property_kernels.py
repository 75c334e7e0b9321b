"""Property-based tests: kernel numerics and cost-model invariants."""

import numpy as np
from hypothesis import given, settings

from repro.gpusim import A100
from repro.kernels.gnnone import GnnOneSDDMM, GnnOneSpMM
from tests.oracles import assert_close, graph_and_dim, operands, to_dense


class TestKernelNumericsProperties:
    """GNNOne against dense references: a second oracle beside the differential suite's."""

    @given(data=graph_and_dim())
    @settings(max_examples=40, deadline=None)
    def test_gnnone_spmm_equals_dense_reference(self, data):
        coo, F, rng = data
        vals, X = operands("spmm", coo, F, rng)
        assert_close(GnnOneSpMM()(coo, vals, X).output, to_dense(coo, vals) @ X)

    @given(data=graph_and_dim())
    @settings(max_examples=40, deadline=None)
    def test_gnnone_sddmm_equals_dense_reference(self, data):
        coo, F, rng = data
        X, Y = operands("sddmm", coo, F, rng)
        assert_close(GnnOneSDDMM()(coo, X, Y).output, (X @ Y.T)[coo.rows, coo.cols])


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
