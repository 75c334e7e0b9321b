"""Atomic-operation contention model.

GNNOne's SpMM writes each thread group's running reduction to the output
with ``atomicAdd`` at every row split (Section 4.3).  The cost of an
atomic depends on how many concurrent atomics collide on the same
address: this module estimates the mean collision degree from the actual
target-row multiset, which the cost model converts into serialization
cycles.
"""

from __future__ import annotations

import numpy as np


def conflict_degree(target_rows: np.ndarray, window: int = 256) -> float:
    """Mean number of concurrent atomics hitting the same output row.

    Atomics issued close together in the schedule contend; we model the
    in-flight window as ``window`` consecutive atomic operations and
    average the per-row collision count inside each window.  Returns 1.0
    for conflict-free streams (all distinct rows) and grows toward the
    window size for a single hot row (e.g. a celebrity vertex in a
    power-law graph).
    """
    rows = np.asarray(target_rows, dtype=np.int64).ravel()
    n = rows.size
    if n == 0:
        return 1.0
    # All windows at once: pad the last one with a sentinel row, sort
    # each window, and read the per-row collision counts c off the run
    # lengths.  Each atomic in a group of size c waits behind c-1 others
    # on average /2, but we report the raw mean group size sum(c^2)/sum(c);
    # the cost model applies its own per-extra-colliding-op charge.
    n_windows = -(-n // window)
    pad = n_windows * window - n
    keys = np.concatenate([rows, np.full(pad, rows.max() + 1, dtype=np.int64)])
    keys = np.sort(keys.reshape(n_windows, window), axis=1)
    new_run = np.ones(keys.shape, dtype=bool)
    np.not_equal(keys[:, 1:], keys[:, :-1], out=new_run[:, 1:])
    starts = np.flatnonzero(new_run)
    runs = np.diff(np.append(starts, keys.size))
    # Integer-valued float sums below 2**53 are exact, so each window's
    # degree is the same IEEE quotient the per-window count formula gives.
    sum_sq = np.bincount(starts // window, weights=runs * runs, minlength=n_windows)
    sizes = np.full(n_windows, float(window))
    if pad:
        sum_sq[-1] -= pad * pad  # the sentinel run
        sizes[-1] = window - pad
    return float((sum_sq / sizes).mean())
