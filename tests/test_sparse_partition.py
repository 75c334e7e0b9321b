"""Work-partitioning math: chunks, slices, segments, both policies."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.sparse.partition import (
    consecutive_slice_ids,
    edge_chunks,
    round_robin_slice_ids,
    segments_in_interleaved_slices,
    segments_in_slices,
)


class TestEdgeChunks:
    def test_exact_division(self):
        ch = edge_chunks(256, 128)
        assert ch.n_chunks == 2
        assert list(ch.chunk_sizes) == [128, 128]

    def test_partial_tail(self):
        ch = edge_chunks(300, 128)
        assert ch.n_chunks == 3
        assert list(ch.chunk_sizes) == [128, 128, 44]

    def test_empty(self):
        ch = edge_chunks(0, 128)
        assert ch.n_chunks == 1
        assert ch.chunk_sizes[0] == 0

    def test_chunk_assignment(self):
        ch = edge_chunks(10, 4)
        assert list(ch.chunk_of_nze) == [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]

    def test_rejects_bad_chunk(self):
        with pytest.raises(ConfigError):
            edge_chunks(10, 0)


class TestSliceIds:
    def test_consecutive_blocks(self):
        ch = edge_chunks(8, 8)
        ids = consecutive_slice_ids(ch.chunk_of_nze, 8, 2)
        assert list(ids) == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_round_robin_interleaves(self):
        ch = edge_chunks(8, 8)
        ids = round_robin_slice_ids(ch.chunk_of_nze, 8, 2)
        assert list(ids) == [0, 1, 0, 1, 0, 1, 0, 1]

    def test_both_cover_all_groups(self):
        ch = edge_chunks(256, 128)
        for fn in (consecutive_slice_ids, round_robin_slice_ids):
            ids = fn(ch.chunk_of_nze, 128, 4)
            assert set(ids) == set(range(8))  # 2 chunks x 4 groups

    def test_equal_share_per_group(self):
        ch = edge_chunks(128, 128)
        for fn in (consecutive_slice_ids, round_robin_slice_ids):
            ids = fn(ch.chunk_of_nze, 128, 4)
            counts = np.bincount(ids)
            assert np.all(counts == 32)


class TestSegments:
    def test_contiguous_segments(self):
        rows = np.array([0, 0, 1, 1, 1, 2])
        slices = np.array([0, 0, 0, 1, 1, 1])
        assert list(segments_in_slices(rows, slices, 2)) == [2, 2]

    def test_interleaved_matches_contiguous_when_contiguous(self):
        rows = np.array([0, 0, 1, 1, 1, 2])
        slices = np.array([0, 0, 0, 1, 1, 1])
        a = segments_in_slices(rows, slices, 2)
        b = segments_in_interleaved_slices(rows, slices, 2)
        assert np.array_equal(a, b)

    def test_round_robin_shatters_segments(self):
        """The Fig-10 mechanism: RR sees more row splits than Consecutive."""
        rows = np.repeat(np.arange(32), 4)  # 128 NZEs, 4 per row
        ch = edge_chunks(128, 128)
        cons = consecutive_slice_ids(ch.chunk_of_nze, 128, 4)
        rr = round_robin_slice_ids(ch.chunk_of_nze, 128, 4)
        seg_cons = segments_in_slices(rows, cons, 4).sum()
        seg_rr = segments_in_interleaved_slices(rows, rr, 4).sum()
        assert seg_rr > seg_cons

    def test_empty(self):
        assert segments_in_slices(np.array([]), np.array([], dtype=int), 3).sum() == 0
