"""Shared-memory, atomics, and dense-op cost models."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.gpusim.atomics import conflict_degree
from repro.gpusim.dense import elementwise_cost, gemm_cost
from repro.gpusim.device import A100
from repro.gpusim.sharedmem import stage1_cache_bytes


class TestStage1CacheBytes:
    def test_sddmm_cache(self):
        assert stage1_cache_bytes(128, with_edge_feature=False) == 128 * 8

    def test_spmm_cache_includes_edge_feature(self):
        assert stage1_cache_bytes(128, with_edge_feature=True) == 128 * 12

    @pytest.mark.parametrize("bad", [0, -32, 33, 100])
    def test_rejects_bad_sizes(self, bad):
        with pytest.raises(ConfigError):
            stage1_cache_bytes(bad, with_edge_feature=False)


class TestAtomics:
    def test_no_conflicts(self):
        assert conflict_degree(np.arange(1000)) == 1.0

    def test_hot_row(self):
        assert conflict_degree(np.zeros(1000, dtype=int)) > 100

    def test_empty(self):
        assert conflict_degree(np.array([], dtype=int)) == 1.0

    def test_monotone_in_duplication(self):
        rng = np.random.default_rng(0)
        spread = conflict_degree(rng.integers(0, 10_000, 5000))
        packed = conflict_degree(rng.integers(0, 10, 5000))
        assert packed > spread


class TestDenseCosts:
    def test_gemm_scales_with_flops(self):
        small = gemm_cost(A100, 1000, 64, 64)
        big = gemm_cost(A100, 100_000, 64, 64)
        assert big.time_us > small.time_us

    def test_gemm_memory_bound_when_thin(self):
        thin = gemm_cost(A100, 10_000_000, 1, 1)
        assert thin.time_us * 1e-6 >= thin.bytes / (A100.dram_bandwidth_gbps * 1e9)

    def test_elementwise_scales(self):
        assert (
            elementwise_cost(A100, 10_000_000).time_us
            > elementwise_cost(A100, 1000).time_us
        )

    def test_launch_floor(self):
        assert elementwise_cost(A100, 1).time_us >= A100.launch_overhead_us
