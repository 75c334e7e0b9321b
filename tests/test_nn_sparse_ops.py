"""Sparse autograd ops: gradients, backward kernel structure, clocking."""

import numpy as np
import pytest

from repro.exec.engine import ExecutionEngine
from repro.kernels.registry import sddmm_kernel, spmv_kernel
from repro.nn import GNNONE_BACKEND, GraphData, SimClock, simulate
from repro.nn.sparse_ops import edge_softmax, spmm, u_add_v
from repro.nn.tensor import Tensor
from repro.sparse import generators
from tests.oracles import chain, gradcheck, to_dense, tsum


@pytest.fixture(scope="module")
def gdata() -> GraphData:
    return GraphData(generators.power_law(60, 5.0, seed=9))


class TestSpmmOp:
    def test_forward_matches_reference(self, gdata, rng):
        ev = Tensor(rng.standard_normal(gdata.num_edges))
        X = Tensor(rng.standard_normal((gdata.num_vertices, 8)))
        out = spmm(gdata, ev, X, GNNONE_BACKEND)
        ref = gdata.coo.to_scipy(ev.data).tocsr() @ X.data
        np.testing.assert_allclose(out.data, ref)

    def test_grad_dX(self, gdata, rng):
        ev = Tensor(rng.standard_normal(gdata.num_edges))
        X = Tensor(rng.standard_normal((gdata.num_vertices, 3)), requires_grad=True)
        assert gradcheck(lambda x: tsum(spmm(gdata, ev, x, GNNONE_BACKEND)), [X])

    def test_grad_edge_values(self, gdata, rng):
        ev = Tensor(rng.standard_normal(gdata.num_edges), requires_grad=True)
        X = Tensor(rng.standard_normal((gdata.num_vertices, 3)))
        assert gradcheck(lambda e: tsum(spmm(gdata, e, X, GNNONE_BACKEND)), [ev])

    def test_backward_runs_transpose_spmm_and_sddmm(self, gdata, rng):
        """The paper's structure: backward(SpMM) = SpMM(A^T) + SDDMM."""
        clock = SimClock()
        with simulate(clock):
            ev = Tensor(rng.standard_normal(gdata.num_edges), requires_grad=True)
            X = Tensor(rng.standard_normal((gdata.num_vertices, 8)), requires_grad=True)
            tsum(spmm(gdata, ev, X, GNNONE_BACKEND)).backward()
        assert "spmm:forward" in clock.buckets
        assert "spmm:backward_dX" in clock.buckets
        assert "sddmm:backward_dW" in clock.buckets


class TestGatherOps:
    def test_u_add_v_forward(self, gdata, rng):
        el = Tensor(rng.standard_normal(gdata.num_vertices))
        er = Tensor(rng.standard_normal(gdata.num_vertices))
        out = u_add_v(gdata, el, er, GNNONE_BACKEND)
        np.testing.assert_allclose(
            out.data, el.data[gdata.coo.rows] + er.data[gdata.coo.cols]
        )

    def test_u_add_v_grads(self, gdata, rng):
        el = Tensor(rng.standard_normal(gdata.num_vertices), requires_grad=True)
        er = Tensor(rng.standard_normal(gdata.num_vertices), requires_grad=True)
        assert gradcheck(
            lambda a, b: tsum(u_add_v(gdata, a, b, GNNONE_BACKEND)), [el, er]
        )


class TestEdgeSoftmax:
    def test_rows_sum_to_one(self, gdata, rng):
        scores = Tensor(rng.standard_normal(gdata.num_edges))
        alpha = edge_softmax(gdata, scores, GNNONE_BACKEND)
        sums = np.zeros(gdata.num_vertices)
        np.add.at(sums, gdata.coo.rows, alpha.data)
        nonempty = np.bincount(gdata.coo.rows, minlength=gdata.num_vertices) > 0
        np.testing.assert_allclose(sums[nonempty], 1.0)

    def test_numerically_stable(self, gdata):
        scores = Tensor(np.full(gdata.num_edges, 500.0))
        alpha = edge_softmax(gdata, scores, GNNONE_BACKEND)
        assert np.all(np.isfinite(alpha.data))

    def test_grads(self, gdata, rng):
        scores = Tensor(rng.standard_normal(gdata.num_edges), requires_grad=True)
        assert gradcheck(
            lambda s: tsum(edge_softmax(gdata, s, GNNONE_BACKEND) * Tensor(
                np.arange(gdata.num_edges, dtype=float)
            )),
            [scores],
        )


class TestPriceOnlyOps:
    def test_score_and_softmax_charge_full_launches_without_kernel_numerics(
        self, gdata, rng, monkeypatch
    ):
        """u_add_v and edge_softmax compute their values in NumPy, so they
        only simulate the SDDMM and SpMV launches whose time they charge."""

        def refuse(*args, **kwargs):
            raise AssertionError("a price-only op ran kernel numerics")

        monkeypatch.setattr(ExecutionEngine, "sddmm", refuse)
        monkeypatch.setattr(ExecutionEngine, "spmv", refuse)
        el = Tensor(rng.standard_normal(gdata.num_vertices), requires_grad=True)
        er = Tensor(rng.standard_normal(gdata.num_vertices), requires_grad=True)
        clock = SimClock()
        with simulate(clock):
            scores = u_add_v(gdata, el, er, GNNONE_BACKEND)
            tsum(edge_softmax(gdata, scores, GNNONE_BACKEND)).backward()
        monkeypatch.undo()

        coo = gdata.coo
        ones = np.ones((gdata.num_vertices, 1))
        sddmm_us = sddmm_kernel(GNNONE_BACKEND.sddmm)(coo, ones, ones).time_us
        spmv_us = spmv_kernel(GNNONE_BACKEND.spmv)(
            coo, np.ones(coo.nnz), np.ones(coo.num_cols)
        ).time_us
        assert clock.buckets["sddmm:u_add_v"] == sddmm_us
        assert clock.buckets["spmv:edge_softmax_reduce"] == spmv_us
        assert clock.buckets["spmv:edge_softmax_bwd"] == spmv_us
        assert el.grad is not None and er.grad is not None


class TestGraphData:
    def test_transpose_consistency(self, gdata, rng):
        """spmm(A^T, ev[perm], g) must equal A^T matmul with original ev."""
        ev = rng.standard_normal(gdata.num_edges)
        g = rng.standard_normal((gdata.num_vertices, 4))
        ref = gdata.coo.to_scipy(ev).tocsr().T @ g
        perm = gdata.transpose_perm
        got = gdata.coo_t.to_scipy(ev[perm]).tocsr() @ g
        np.testing.assert_allclose(got, ref)

    def test_coo_t_is_csr_ordered(self, gdata):
        assert gdata.coo_t.is_csr_ordered()

    def test_gcn_norm_values(self, gdata):
        vals = gdata.gcn_edge_values
        assert vals.shape == (gdata.num_edges,)
        assert np.all(vals > 0) and np.all(vals <= 1.0)

    def test_self_loops_added(self):
        g = GraphData(chain(10))
        dense = to_dense(g.coo)
        assert np.all(np.diag(dense) == 1)

    def test_row_boundaries(self, gdata):
        b = gdata.row_boundaries
        assert b[0] == 0
        assert np.all(np.diff(b) > 0)
