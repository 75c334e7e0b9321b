"""Property-based tests: sparse formats and partitioning invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import COOMatrix
from repro.sparse.formats import build_merge_path, build_neighbor_groups
from repro.sparse.partition import (
    consecutive_slice_ids,
    edge_chunks,
    round_robin_slice_ids,
    segments_in_interleaved_slices,
)
from tests.oracles import csr_rows, merge_path_counts, to_dense


@st.composite
def coo_matrices(draw, max_dim: int = 40, max_nnz: int = 200) -> COOMatrix:
    n = draw(st.integers(min_value=1, max_value=max_dim))
    nnz = draw(st.integers(min_value=0, max_value=max_nnz))
    rows = draw(
        st.lists(st.integers(0, n - 1), min_size=nnz, max_size=nnz)
    )
    cols = draw(
        st.lists(st.integers(0, n - 1), min_size=nnz, max_size=nnz)
    )
    return COOMatrix.from_edges(n, n, np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64))


class TestFormatRoundTrips:
    @given(coo=coo_matrices())
    @settings(max_examples=60, deadline=None)
    def test_coo_csr_roundtrip(self, coo):
        csr = coo.to_csr()
        assert np.array_equal(csr_rows(csr), coo.rows)
        assert np.array_equal(csr.indices, coo.cols)

    @given(coo=coo_matrices())
    @settings(max_examples=60, deadline=None)
    def test_from_edges_always_csr_ordered(self, coo):
        assert coo.is_csr_ordered()

    @given(coo=coo_matrices())
    @settings(max_examples=60, deadline=None)
    def test_scipy_agreement(self, coo):
        assert np.array_equal(to_dense(coo), coo.to_scipy().toarray())

    @given(coo=coo_matrices())
    @settings(max_examples=40, deadline=None)
    def test_degrees_sum_to_nnz(self, coo):
        assert coo.row_degrees().sum() == coo.nnz


class TestCustomFormatInvariants:
    @given(coo=coo_matrices(), gs=st.sampled_from([8, 16, 32]))
    @settings(max_examples=40, deadline=None)
    def test_neighbor_groups_cover_exactly(self, coo, gs):
        fmt = build_neighbor_groups(coo.to_csr(), gs)
        assert fmt.group_len.sum() == coo.nnz
        assert np.all(fmt.group_len <= gs)

    @given(coo=coo_matrices(), items=st.sampled_from([4, 32, 128]))
    @settings(max_examples=40, deadline=None)
    def test_merge_path_partition(self, coo, items):
        fmt = build_merge_path(coo.to_csr(), items)
        nzes, rows = merge_path_counts(fmt)
        assert nzes.sum() == coo.nnz
        assert rows.sum() == coo.num_rows
        assert np.all(nzes >= 0)
        assert np.all(rows >= 0)


class TestSchedulerProperties:
    @given(
        nnz=st.integers(0, 600),
        cache=st.sampled_from([32, 64, 128]),
        groups=st.sampled_from([1, 2, 4, 8]),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_nze_assigned_exactly_once(self, nnz, cache, groups):
        ch = edge_chunks(nnz, cache)
        for fn in (consecutive_slice_ids, round_robin_slice_ids):
            ids = fn(ch.chunk_of_nze, cache, groups)
            assert ids.shape == (nnz,)
            if nnz:
                # slice ids consistent with owning chunk
                assert np.array_equal(ids // groups, ch.chunk_of_nze)

    @given(
        nnz=st.integers(1, 400),
        nrows=st.integers(1, 30),
        cache=st.sampled_from([32, 128]),
        groups=st.sampled_from([2, 4]),
    )
    @settings(max_examples=60, deadline=None)
    def test_segment_counts_bounded(self, nnz, nrows, cache, groups, ):
        rng = np.random.default_rng(nnz * 31 + nrows)
        rows = np.sort(rng.integers(0, nrows, nnz))
        ch = edge_chunks(nnz, cache)
        for fn in (consecutive_slice_ids, round_robin_slice_ids):
            ids = fn(ch.chunk_of_nze, cache, groups)
            segs = segments_in_interleaved_slices(rows, ids, ch.n_chunks * groups)
            # at least one segment per non-empty slice; never more than
            # the slice's population
            pops = np.bincount(ids, minlength=ch.n_chunks * groups)
            assert np.all(segs[pops > 0] >= 1)
            assert np.all(segs <= pops)
            assert segs.sum() >= len(np.unique(rows))
