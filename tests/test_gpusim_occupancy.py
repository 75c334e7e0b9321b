"""Occupancy calculator: limits, limiters, Yang-style register pressure."""

import pytest

from repro.errors import ConfigError
from repro.gpusim import A100, compute_occupancy


class TestOccupancyLimits:
    def test_thread_limited(self):
        occ = compute_occupancy(A100, 128, 32, 0)
        assert occ.limiter == "threads"
        assert occ.active_ctas_per_sm == 2048 // 128
        assert occ.active_warps_per_sm == 64

    def test_register_limited(self):
        # 128 regs/thread, 256-thread CTAs: 65536/(128*256) = 2 CTAs.
        occ = compute_occupancy(A100, 256, 128, 0)
        assert occ.limiter == "registers"
        assert occ.active_ctas_per_sm == 2

    def test_shared_memory_limited(self):
        occ = compute_occupancy(A100, 64, 32, 48 * 1024)
        assert occ.limiter == "shared_memory"
        assert occ.active_ctas_per_sm == (164 * 1024) // (48 * 1024)

    def test_more_registers_never_increases_occupancy(self):
        prev = None
        for regs in (16, 32, 64, 96, 128, 192, 255):
            occ = compute_occupancy(A100, 128, regs, 0)
            if prev is not None:
                assert occ.active_warps_per_sm <= prev
            prev = occ.active_warps_per_sm

    def test_yang_register_materialization_hurts(self):
        """The Section-3.2 claim: F=32 materialization slashes occupancy."""
        baseline = compute_occupancy(A100, 128, 40, 0)
        yang = compute_occupancy(A100, 128, 40 + 32 + 32, 0)
        assert yang.active_warps_per_sm < baseline.active_warps_per_sm / 2

    def test_register_spill_pins_at_max(self):
        # >255 regs spills; occupancy equals that of 255-reg launch.
        a = compute_occupancy(A100, 128, 400, 0)
        b = compute_occupancy(A100, 128, 255, 0)
        assert a.active_ctas_per_sm == b.active_ctas_per_sm

    def test_occupancy_fraction(self):
        occ = compute_occupancy(A100, 128, 32, 0)
        assert occ.active_warps_per_sm == A100.max_warps_per_sm == 64


class TestOccupancyValidation:
    def test_zero_threads_rejected(self):
        with pytest.raises(ConfigError):
            compute_occupancy(A100, 0, 32, 0)

    def test_too_many_threads_rejected(self):
        with pytest.raises(ConfigError):
            compute_occupancy(A100, 2048, 32, 0)

    def test_negative_smem_rejected(self):
        with pytest.raises(ConfigError):
            compute_occupancy(A100, 128, 32, -1)

    def test_oversized_smem_rejected(self):
        with pytest.raises(ConfigError):
            compute_occupancy(A100, 128, 32, 200 * 1024)

    def test_zero_registers_rejected(self):
        with pytest.raises(ConfigError):
            compute_occupancy(A100, 128, 0, 0)
