"""Small argument-validation helpers used across the package.

These keep the public API fail-fast with readable messages instead of
letting NumPy broadcasting errors surface from deep inside a kernel.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import ConfigError, FormatError


def check_array(x: object, name: str, ndim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to an ndarray, optionally enforcing dimensionality."""
    arr = np.asarray(x)
    if ndim is not None and arr.ndim != ndim:
        raise FormatError(f"{name} must be {ndim}-dimensional, got ndim={arr.ndim}")
    return arr


def check_in(value: object, name: str, allowed: Iterable[object]) -> object:
    allowed = tuple(allowed)
    if value not in allowed:
        raise ConfigError(f"{name} must be one of {allowed}, got {value!r}")
    return value
