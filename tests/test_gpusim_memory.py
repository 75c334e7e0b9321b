"""Coalescing/sector math: closed forms vs the exact address-based path."""

import numpy as np
import pytest

from repro.gpusim.device import SECTOR_BYTES
from repro.gpusim.memory import (
    feature_row_sectors,
    streaming_sectors,
    unique_per_warp,
)


class TestStreamingSectors:
    def test_exact_multiple(self):
        assert streaming_sectors(8, 4) == 1  # 32 bytes = 1 sector

    def test_rounds_up(self):
        assert streaming_sectors(9, 4) == 2

    def test_vectorized(self):
        out = streaming_sectors(np.array([8, 16, 1]), 4)
        assert list(out) == [1, 2, 1]

    def test_matches_exact_address_model(self):
        """Contiguous 4B loads: closed form == per-address unique sectors."""
        n = 1000
        addrs = np.arange(n) * 4
        warp_ids = np.zeros(n, dtype=np.int64)
        exact = unique_per_warp(warp_ids, addrs // SECTOR_BYTES, 1)[0]
        assert streaming_sectors(n, 4) == exact


class TestFeatureRowSectors:
    @pytest.mark.parametrize("F,expected", [(8, 1), (16, 2), (32, 4), (6, 1), (64, 8)])
    def test_values(self, F, expected):
        assert feature_row_sectors(F * 4) == expected


class TestUniquePerWarp:
    def test_basic(self):
        warps = np.array([0, 0, 1, 1, 1])
        keys = np.array([7, 7, 7, 8, 8])
        assert list(unique_per_warp(warps, keys, 2)) == [1.0, 2.0]

    def test_empty(self):
        assert list(unique_per_warp(np.array([], dtype=int), np.array([], dtype=int), 3)) == [0, 0, 0]


class TestSegmentSectorsExact:
    """Distinct (warp, sector) pairs: the exact model the closed forms match."""

    def test_fully_scattered_warp(self):
        addrs = np.arange(32) * 128  # every lane in its own sector
        out = unique_per_warp(np.zeros(32, dtype=int), addrs // SECTOR_BYTES, 1)
        assert out[0] == 32

    def test_fully_coalesced_warp(self):
        addrs = np.arange(32) * 4
        out = unique_per_warp(np.zeros(32, dtype=int), addrs // SECTOR_BYTES, 1)
        assert out[0] == 4
