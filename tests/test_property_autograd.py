"""Property-based tests: autograd gradients against finite differences."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import GNNONE_BACKEND, GraphData
from repro.nn import functional as F
from repro.nn.sparse_ops import edge_softmax, spmm, u_add_v
from repro.nn.tensor import Tensor
from repro.sparse import COOMatrix
from tests.oracles import gradcheck, tsum


@st.composite
def small_graph_data(draw):
    n = draw(st.integers(3, 12))
    nnz = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coo = COOMatrix.from_edges(n, n, rng.integers(0, n, nnz), rng.integers(0, n, nnz))
    return GraphData(coo), rng


class TestSparseOpGradients:
    @given(gd=small_graph_data())
    @settings(max_examples=15, deadline=None)
    def test_spmm_grads(self, gd):
        graph, rng = gd
        ev = Tensor(rng.standard_normal(graph.num_edges), requires_grad=True)
        X = Tensor(rng.standard_normal((graph.num_vertices, 2)), requires_grad=True)
        assert gradcheck(lambda e, x: tsum(spmm(graph, e, x, GNNONE_BACKEND)), [ev, X])

    @given(gd=small_graph_data())
    @settings(max_examples=15, deadline=None)
    def test_u_add_v_grads(self, gd):
        graph, rng = gd
        el = Tensor(rng.standard_normal(graph.num_vertices), requires_grad=True)
        er = Tensor(rng.standard_normal(graph.num_vertices), requires_grad=True)
        assert gradcheck(
            lambda a, b: tsum(u_add_v(graph, a, b, GNNONE_BACKEND)), [el, er]
        )

    @given(gd=small_graph_data())
    @settings(max_examples=10, deadline=None)
    def test_edge_softmax_grads(self, gd):
        graph, rng = gd
        s = Tensor(rng.standard_normal(graph.num_edges), requires_grad=True)
        w = Tensor(rng.standard_normal(graph.num_edges))
        assert gradcheck(
            lambda t: tsum(edge_softmax(graph, t, GNNONE_BACKEND) * w), [s]
        )


class TestElementwiseGradients:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_composed_activations(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((4, 3)) + 0.05, requires_grad=True)
        assert gradcheck(
            lambda t: tsum(F.log_softmax(F.elu(t * t + t))) * (1 / 12), [x]  # the mean
        )

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_matmul_chain(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        c = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
        assert gradcheck(lambda x, y, z: tsum((x @ y) @ z), [a, b, c])
