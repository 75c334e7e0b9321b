"""COO/CSR containers: invariants, conversions, chunk math."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import FormatError
from repro.sparse import COOMatrix, CSRMatrix
from tests.oracles import csr_rows, to_dense


class TestCOOConstruction:
    def test_from_edges_sorts_csr_order(self):
        coo = COOMatrix.from_edges(3, 3, [2, 0, 1, 0], [0, 2, 1, 1])
        assert coo.is_csr_ordered()
        assert list(coo.rows) == [0, 0, 1, 2]
        assert list(coo.cols) == [1, 2, 1, 0]

    def test_from_edges_deduplicates(self):
        coo = COOMatrix.from_edges(2, 2, [0, 0, 0], [1, 1, 0])
        assert coo.nnz == 2

    def test_from_edges_keep_duplicates(self):
        coo = COOMatrix.from_edges(2, 2, [0, 0], [1, 1], deduplicate=False)
        assert coo.nnz == 2

    def test_rejects_out_of_range(self):
        with pytest.raises(FormatError):
            COOMatrix(2, 2, np.array([0, 5]), np.array([0, 1]))
        with pytest.raises(FormatError):
            COOMatrix(2, 2, np.array([0]), np.array([-1]))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(FormatError):
            COOMatrix(2, 2, np.array([0, 1]), np.array([0]))

    def test_empty_matrix(self):
        coo = COOMatrix(5, 5, np.array([], dtype=np.int32), np.array([], dtype=np.int32))
        assert coo.nnz == 0
        assert coo.is_csr_ordered()
        assert coo.to_csr().nnz == 0

    def test_int32_storage(self):
        coo = COOMatrix.from_edges(2, 2, [0], [1])
        assert coo.rows.dtype == np.int32
        assert coo.rows.nbytes + coo.cols.nbytes == 8  # 2 x int32


class TestCOOQueries:
    def test_row_degrees(self, tiny_coo):
        assert list(tiny_coo.row_degrees()) == [2, 1, 3, 1]

    def test_sort_csr_order(self):
        unsorted = COOMatrix(3, 3, np.array([2, 0]), np.array([1, 1]))
        assert not unsorted.is_csr_ordered()
        assert unsorted.sort_csr_order().is_csr_ordered()

    def test_to_dense_roundtrip(self, tiny_coo):
        dense = to_dense(tiny_coo)
        assert dense.sum() == tiny_coo.nnz
        assert dense[0, 1] == 1 and dense[0, 3] == 1

    def test_row_splits_in_chunks(self, tiny_coo):
        # NZE stream rows: [0,0,1,2,2,2,3]; chunks of 4 -> [0,0,1,2],[2,2,3]
        segs = tiny_coo.row_splits_in_chunks(4)
        assert list(segs) == [3, 2]

    def test_row_splits_whole_stream(self, tiny_coo):
        assert tiny_coo.row_splits_in_chunks(100).sum() == 4  # 4 distinct rows

    def test_row_splits_rejects_bad_chunk(self, tiny_coo):
        with pytest.raises(FormatError):
            tiny_coo.row_splits_in_chunks(0)


class TestCSR:
    def test_roundtrip(self, small_graph):
        csr = small_graph.to_csr()
        assert np.array_equal(csr_rows(csr), small_graph.rows)
        assert np.array_equal(csr.indices, small_graph.cols)

    def test_degrees_match(self, small_graph):
        assert np.array_equal(
            small_graph.to_csr().row_degrees(), small_graph.row_degrees()
        )

    def test_invalid_indptr_rejected(self):
        with pytest.raises(FormatError):
            CSRMatrix(2, 2, np.array([0, 2]), np.array([0, 1]))  # wrong length
        with pytest.raises(FormatError):
            CSRMatrix(2, 2, np.array([0, 2, 1]), np.array([0, 1]))  # decreasing

    def test_scipy_equivalence(self, small_graph):
        csr = small_graph.to_csr()
        ours = sp.csr_matrix(
            (np.ones(csr.nnz), csr.indices, csr.indptr), shape=small_graph.shape
        ).toarray()
        ref = small_graph.to_scipy().toarray()
        assert np.array_equal(ours, ref)

    def test_memory_smaller_than_coo_for_dense_rows(self, medium_graph):
        # CSR stores one offset per row instead of a row id per NZE.
        csr = medium_graph.to_csr()
        coo_bytes = medium_graph.rows.nbytes + medium_graph.cols.nbytes
        assert csr.indptr.nbytes + csr.indices.nbytes < coo_bytes * 0.8
