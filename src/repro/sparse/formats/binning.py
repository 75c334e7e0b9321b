"""Degree binning (Enterprise [26] / Gunrock [36] style).

Rows are pre-sorted into bins by degree class and a separate kernel is
launched per bin with a matching parallelization grain (thread / warp /
CTA / grid per row).  The paper notes such schemes still suffer
imbalance *within* each bin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.sparse.csr import CSRMatrix

#: Default degree-class boundaries: thread (<8), warp (<256), CTA
#: (<8192), grid (the rest).
DEFAULT_BOUNDARIES = (8, 256, 8192)


@dataclass(frozen=True)
class DegreeBins:
    """Row ids grouped by degree class."""

    csr: CSRMatrix
    boundaries: tuple[int, ...]
    bins: tuple[np.ndarray, ...]


def build_degree_bins(
    csr: CSRMatrix, boundaries: tuple[int, ...] = DEFAULT_BOUNDARIES
) -> DegreeBins:
    if any(b <= 0 for b in boundaries) or list(boundaries) != sorted(boundaries):
        raise ConfigError("boundaries must be positive and increasing")
    deg = csr.row_degrees()
    edges = np.array([0, *boundaries, np.iinfo(np.int64).max])
    which = np.searchsorted(edges, deg, side="right") - 1
    bins = tuple(
        np.flatnonzero(which == i).astype(np.int32) for i in range(len(edges) - 1)
    )
    return DegreeBins(csr=csr, boundaries=tuple(boundaries), bins=bins)
