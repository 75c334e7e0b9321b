"""Utility helpers and the exception hierarchy."""

import numpy as np
import pytest

from repro import errors
from repro.utils import check_array, check_in, default_rng


class TestValidation:
    def test_check_array_coerces(self):
        out = check_array([1, 2, 3], "x")
        assert isinstance(out, np.ndarray)

    def test_check_array_ndim(self):
        with pytest.raises(errors.FormatError):
            check_array([[1]], "x", ndim=1)

    def test_scalar_checks(self):
        assert check_in("a", "x", ["a", "b"]) == "a"
        with pytest.raises(errors.ConfigError):
            check_in("c", "x", ["a", "b"])


class TestRng:
    def test_default_seed_is_fixed(self):
        a = default_rng(None).random(4)
        b = default_rng(None).random(4)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        g = np.random.default_rng(1)
        assert default_rng(g) is g


class TestErrorHierarchy:
    def test_all_subclass_repro_error(self):
        for name in (
            "FormatError",
            "KernelLaunchError",
            "AutogradError",
            "ConfigError",
            "BenchmarkError",
        ):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)

    def test_catchable_as_base(self):
        with pytest.raises(errors.ReproError):
            raise errors.KernelLaunchError("boom")
