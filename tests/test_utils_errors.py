"""Utility helpers and the exception hierarchy."""

import numpy as np
import pytest

from repro import errors
from repro.utils import (
    check_array,
    check_dtype,
    check_in,
    check_nonneg,
    check_positive,
    check_shape,
    default_rng,
    spawn_rng,
)


class TestValidation:
    def test_check_array_coerces(self):
        out = check_array([1, 2, 3], "x")
        assert isinstance(out, np.ndarray)

    def test_check_array_ndim(self):
        with pytest.raises(errors.FormatError):
            check_array([[1]], "x", ndim=1)

    def test_check_dtype(self):
        check_dtype(np.zeros(3), "x", "f")
        with pytest.raises(errors.FormatError):
            check_dtype(np.zeros(3, dtype=complex), "x", "fi")

    def test_check_shape_wildcards(self):
        check_shape(np.zeros((3, 4)), "x", (None, 4))
        with pytest.raises(errors.FormatError):
            check_shape(np.zeros((3, 4)), "x", (None, 5))
        with pytest.raises(errors.FormatError):
            check_shape(np.zeros(3), "x", (3, 1))

    def test_scalar_checks(self):
        assert check_positive(1.0, "x") == 1.0
        assert check_nonneg(0.0, "x") == 0.0
        assert check_in("a", "x", ["a", "b"]) == "a"
        with pytest.raises(errors.ConfigError):
            check_positive(0, "x")
        with pytest.raises(errors.ConfigError):
            check_nonneg(-1, "x")
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

    def test_spawn_independent(self):
        children = spawn_rng(default_rng(3), 3)
        draws = [c.random(8) for c in children]
        assert not np.allclose(draws[0], draws[1])
        assert len(children) == 3


class TestErrorHierarchy:
    def test_all_subclass_repro_error(self):
        for name in (
            "FormatError",
            "UnsupportedFormatError",
            "KernelLaunchError",
            "DeviceOutOfMemoryError",
            "AutogradError",
            "ConfigError",
            "BenchmarkError",
        ):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)

    def test_catchable_as_base(self):
        with pytest.raises(errors.ReproError):
            raise errors.KernelLaunchError("boom")
