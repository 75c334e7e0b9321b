"""DeviceSpec: derived quantities, registry, validation."""

import pytest

from repro.errors import ConfigError
from repro.gpusim import A100, V100, DeviceSpec, get_device


class TestDeviceSpec:
    def test_clock_conversion_roundtrip(self):
        us = 12.5
        assert A100.cycles_to_us(A100.us_to_cycles(us)) == pytest.approx(us)

    def test_dram_bytes_per_cycle(self):
        # 1555 GB/s at 1.41 GHz ~ 1102 bytes per cycle.
        assert A100.dram_bytes_per_cycle == pytest.approx(1102.8, rel=1e-3)

    def test_validate_default_ok(self):
        assert DeviceSpec() == A100  # the shipped parameters pass validation
        DeviceSpec(name="custom", num_sms=V100.num_sms)

    def test_validate_rejects_bad_warp(self):
        with pytest.raises(ConfigError):
            DeviceSpec(warp_size=64)

    def test_validate_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            DeviceSpec(num_sms=0)

    def test_v100_is_smaller(self):
        assert V100.num_sms < A100.num_sms
        assert V100.dram_bandwidth_gbps < A100.dram_bandwidth_gbps


class TestGetDevice:
    def test_default_is_a100(self):
        assert get_device(None) is A100

    def test_by_name(self):
        assert get_device("a100") is A100
        assert get_device("v100") is V100
        assert get_device(A100.name) is A100

    def test_passthrough(self):
        spec = DeviceSpec(name="custom")
        assert get_device(spec) is spec

    def test_unknown_raises(self):
        with pytest.raises(ConfigError, match="unknown device"):
            get_device("h100")
