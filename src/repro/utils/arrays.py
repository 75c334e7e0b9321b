"""Array helpers shared by the simulator and the validation boundary."""

from __future__ import annotations

import numpy as np


def sorted_distinct(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of integer array ``a``, flattened.

    Returns exactly what ``np.unique(a)`` returns (same values, same
    dtype).  ``np.unique`` on numpy >= 2.3 routes integer inputs through
    a hash table whose cost dominated the simulator's distinct-key
    counts; one ``np.sort`` plus an adjacent-difference mask is the
    classic sort-based form and several times faster on the key arrays
    the simulator builds (up to millions of keys).
    """
    s = np.sort(np.asarray(a), axis=None)
    if s.size < 2:
        return s
    keep = np.empty(s.size, dtype=bool)
    keep[0] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]
