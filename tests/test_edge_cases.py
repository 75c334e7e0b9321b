"""Edge cases and failure injection across the stack."""

import numpy as np
import pytest

from repro import core
from repro.errors import FormatError
from repro.kernels.gnnone import GnnOneSDDMM, GnnOneSpMM
from repro.nn import GCN, GraphData, Trainer
from repro.nn.data import NodeClassificationData
from repro.sparse import COOMatrix
from tests.oracles import chain, core_path


class TestDegenerateGraphs:
    def _empty(self, n=8):
        return COOMatrix(n, n, np.array([], dtype=np.int32), np.array([], dtype=np.int32))

    def test_empty_graph_spmm(self, rng):
        A = self._empty()
        out, report = core.spmm(A, np.zeros(0), rng.standard_normal((8, 4)))
        assert np.all(out == 0)
        assert report.time_us > 0  # launch overhead still counted

    def test_empty_graph_sddmm(self, rng):
        A = self._empty()
        X = rng.standard_normal((8, 4))
        out, _ = core.sddmm(A, X, X)
        assert out.shape == (0,)

    def test_single_edge(self, rng):
        core_path("spmm", COOMatrix.from_edges(4, 4, [1], [2]), rng)

    def test_self_loops_only(self, rng):
        diag = np.arange(6)
        core_path("spmm", COOMatrix.from_edges(6, 6, diag, diag), rng)

    def test_duplicate_edges_accumulate(self, rng):
        core_path("spmm", COOMatrix.from_edges(3, 3, [0, 0], [1, 1], deduplicate=False), rng)

    def test_rectangular_matrix(self, rng):
        out, _ = core_path("spmm", COOMatrix.from_edges(3, 7, [0, 2], [6, 1]), rng)
        assert out.shape == (3, 4)

    def test_isolated_vertices_training(self, rng):
        """Graph with isolated vertices must train without NaNs."""
        base = chain(50)
        # pad with 10 isolated vertices
        A = COOMatrix(60, 60, base.rows, base.cols)
        graph = GraphData(A)
        labels = rng.integers(0, 3, 60)
        data = NodeClassificationData(
            features=rng.standard_normal((60, 8)),
            labels=labels,
            train_mask=np.ones(60, dtype=bool),
            val_mask=np.zeros(60, dtype=bool),
            test_mask=np.zeros(60, dtype=bool),
            num_classes=3,
        )
        model = GCN(8, 8, 3, seed=0)
        result = Trainer(model, graph, data, lr=0.05).fit(3)
        assert np.isfinite(result.history[-1].loss)


class TestInputHardening:
    def test_integer_inputs_coerced(self, small_graph):
        X = np.ones((small_graph.num_cols, 8), dtype=np.int32)
        vals = np.ones(small_graph.nnz, dtype=np.int64)
        out, _ = core.spmm(small_graph, vals, X)
        assert out.dtype == np.float64

    def test_wrong_rank_features(self, small_graph):
        with pytest.raises(FormatError):
            core.spmm(small_graph, np.ones(small_graph.nnz), np.ones(small_graph.num_cols))

    def test_feature_length_variety(self, small_graph, rng):
        """Odd feature lengths all work (the float3/float2/scalar paths)."""
        for F in (1, 2, 3, 5, 6, 7, 9, 12, 17, 33, 63):
            core_path("spmm", small_graph, rng, F)

    def test_extreme_values(self, small_graph):
        X = np.full((small_graph.num_cols, 4), 1e200)
        vals = np.full(small_graph.nnz, 1e200)
        out, _ = core.spmm(small_graph, vals, X)
        assert np.all(np.isinf(out[small_graph.rows[0]]))  # overflow, not crash


class TestKernelDeterminism:
    def test_repeat_calls_identical(self, small_graph, rng):
        vals = rng.standard_normal(small_graph.nnz)
        X = rng.standard_normal((small_graph.num_cols, 16))
        a = GnnOneSpMM()(small_graph, vals, X)
        b = GnnOneSpMM()(small_graph, vals, X)
        np.testing.assert_array_equal(a.output, b.output)
        assert a.time_us == b.time_us

    def test_trace_counters_deterministic(self, small_graph, rng):
        X = rng.standard_normal((small_graph.num_rows, 16))
        a = GnnOneSDDMM()(small_graph, X, X).trace.counters()
        b = GnnOneSDDMM()(small_graph, X, X).trace.counters()
        assert a == b
