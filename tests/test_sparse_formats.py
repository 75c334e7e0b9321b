"""Custom storage formats: neighbor groups, merge path, swizzle, bins."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.sparse.formats import (
    build_degree_bins,
    build_merge_path,
    build_neighbor_groups,
    build_row_swizzle,
)
from tests.oracles import merge_path_counts


class TestNeighborGroups:
    def test_covers_all_nzes(self, medium_graph):
        fmt = build_neighbor_groups(medium_graph.to_csr(), 32)
        assert fmt.group_len.sum() == medium_graph.nnz

    def test_group_sizes_capped(self, medium_graph):
        fmt = build_neighbor_groups(medium_graph.to_csr(), 32)
        assert fmt.group_len.max() <= 32
        assert fmt.group_len.min() >= 0

    def test_group_starts_inside_rows(self, small_graph):
        csr = small_graph.to_csr()
        fmt = build_neighbor_groups(csr, 32)
        for g in range(0, fmt.n_groups, max(1, fmt.n_groups // 50)):
            row = fmt.group_row[g]
            assert csr.indptr[row] <= fmt.group_start[g] < csr.indptr[row + 1] or fmt.group_len[g] == 0

    def test_uniform_rows_one_group_each(self, uniform_graph):
        fmt = build_neighbor_groups(uniform_graph.to_csr(), 32)
        # road graph degrees < 32 -> exactly one group per non-empty row
        nonempty = (uniform_graph.row_degrees() > 0).sum()
        assert fmt.n_groups == nonempty

    def test_tail_waste_on_skewed_graph(self, medium_graph):
        """The paper's critique: row lengths are rarely multiples of 32."""
        fmt = build_neighbor_groups(medium_graph.to_csr(), 32)
        assert fmt.group_len.sum() < fmt.n_groups * fmt.group_size

    def test_rejects_bad_group_size(self, tiny_coo):
        with pytest.raises(ConfigError):
            build_neighbor_groups(tiny_coo.to_csr(), 0)


class TestMergePath:
    def test_partitions_cover_everything(self, medium_graph):
        csr = medium_graph.to_csr()
        fmt = build_merge_path(csr, 128)
        nzes, rows = merge_path_counts(fmt)
        assert nzes.sum() == csr.nnz
        assert rows.sum() == csr.num_rows

    def test_balanced_total_items(self, medium_graph):
        """Merge path's guarantee: rows+NZEs per partition is ~constant."""
        csr = medium_graph.to_csr()
        fmt = build_merge_path(csr, 128)
        nzes, rows = merge_path_counts(fmt)
        items = nzes + rows
        assert items[:-1].max() <= 128 + 1
        assert items[:-1].min() >= 127 - 1

    def test_coordinates_monotone(self, small_graph):
        fmt = build_merge_path(small_graph.to_csr(), 64)
        assert np.all(np.diff(fmt.start_row) >= 0)
        assert np.all(np.diff(fmt.start_nze) >= 0)

    def test_rejects_bad_size(self, tiny_coo):
        with pytest.raises(ConfigError):
            build_merge_path(tiny_coo.to_csr(), 0)


class TestRowSwizzle:
    def test_decreasing_lengths(self, medium_graph):
        csr = medium_graph.to_csr()
        fmt = build_row_swizzle(csr)
        deg = csr.row_degrees()[fmt.row_order]
        assert np.all(np.diff(deg) <= 0)

    def test_is_permutation(self, small_graph):
        fmt = build_row_swizzle(small_graph.to_csr())
        assert sorted(fmt.row_order) == list(range(small_graph.num_rows))


class TestDegreeBins:
    def test_partition_of_rows(self, medium_graph):
        bins = build_degree_bins(medium_graph.to_csr())
        total = sum(len(b) for b in bins.bins)
        assert total == medium_graph.num_rows

    def test_bin_boundaries_respected(self, medium_graph):
        csr = medium_graph.to_csr()
        bins = build_degree_bins(csr, (8, 256, 8192))
        deg = csr.row_degrees()
        edges = [0, 8, 256, 8192, np.iinfo(np.int64).max]
        for i, rows in enumerate(bins.bins):
            if len(rows):
                assert deg[rows].min() >= edges[i]
                assert deg[rows].max() < edges[i + 1]

    def test_residual_imbalance_within_bins(self, medium_graph):
        """The paper's point: binning leaves imbalance inside each bin."""
        csr = medium_graph.to_csr()
        deg = csr.row_degrees().astype(np.float64)
        bins = build_degree_bins(csr)
        assert max(deg[rows].max() / deg[rows].mean() for rows in bins.bins if rows.size) > 1.5

    def test_rejects_bad_boundaries(self, tiny_coo):
        with pytest.raises(ConfigError):
            build_degree_bins(tiny_coo.to_csr(), (256, 8))
