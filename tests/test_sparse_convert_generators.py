"""Conversions, symmetrization, and the graph generators' structure."""

import numpy as np
import pytest

from repro.errors import ConfigError, FormatError
from repro.sparse import add_self_loops, graph_stats, symmetrize
from repro.sparse import generators as gen
from repro.sparse.coo import COOMatrix
from tests.oracles import to_dense


class TestConvert:
    def test_symmetrize(self):
        coo = COOMatrix.from_edges(3, 3, [0], [2])
        sym = symmetrize(coo)
        assert sym.nnz == 2
        dense = to_dense(sym)
        assert np.array_equal(dense, dense.T)

    def test_symmetrize_rejects_rect(self):
        with pytest.raises(FormatError):
            symmetrize(COOMatrix.from_edges(2, 3, [0], [2]))

    def test_add_self_loops(self, tiny_coo):
        looped = add_self_loops(tiny_coo)
        dense = to_dense(looped)
        assert np.all(np.diag(dense) == 1)
        # idempotent
        assert add_self_loops(looped).nnz == looped.nnz


class TestGenerators:
    def test_all_generators_produce_valid_undirected(self):
        for g in (
            gen.erdos_renyi(200, 800, seed=1),
            gen.rmat(8, 8, seed=1),
            gen.power_law(300, 6.0, seed=1),
            gen.web_graph(300, 5.0, seed=1),
            gen.road_grid(15, seed=1),
        ):
            assert g.is_csr_ordered()
            dense = to_dense(g)
            assert np.array_equal(dense, dense.T), "must be symmetric"
            assert np.all(np.diag(dense) == 0) or g.nnz == 0

    def test_determinism(self):
        a = gen.rmat(8, 8, seed=5)
        b = gen.rmat(8, 8, seed=5)
        assert np.array_equal(a.rows, b.rows) and np.array_equal(a.cols, b.cols)
        c = gen.rmat(8, 8, seed=6)
        assert a.nnz != c.nnz or not np.array_equal(a.cols, c.cols)

    def test_skew_classes(self):
        """Structural classes match their Table-1 roles."""
        road = graph_stats(gen.road_grid(60, seed=2))
        social = graph_stats(gen.power_law(4000, 10.0, seed=2))
        kron = graph_stats(gen.rmat(12, 16, seed=2))
        assert road.degree_cv < 0.3
        assert social.degree_cv > 1.0
        assert kron.degree_cv > 1.0
        assert social.gini > road.gini

    def test_power_law_hub_capped(self):
        g = gen.power_law(5000, 20.0, seed=3)
        stats = graph_stats(g)
        # no hub above ~2x the clip share of edges
        assert stats.max_degree < 2 * max(32, 0.003 * g.nnz) + 64

    def test_bad_args_rejected(self):
        with pytest.raises(ConfigError):
            gen.erdos_renyi(1, 10)
        with pytest.raises(ConfigError):
            gen.power_law(10, -1.0)
        with pytest.raises(ConfigError):
            gen.road_grid(1)

    def test_rmat_size(self):
        g = gen.rmat(8, 8, seed=0)
        assert g.num_rows == 256
        assert g.nnz <= 2 * 8 * 256  # doubled, minus dedup/self-loops
        assert g.nnz > 8 * 256 * 0.5
