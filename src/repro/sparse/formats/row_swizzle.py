"""Row-swizzle ordering (Sputnik [11]).

Sputnik's SpMM preprocesses an extra array of row ids sorted by
decreasing row length, so the warp scheduler retires long rows first and
tail imbalance shrinks.  It is still vertex-parallel — a single hub row
still lands on one warp — which is why the paper groups it with the
partial, format-paying solutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.csr import CSRMatrix


@dataclass(frozen=True)
class RowSwizzleFormat:
    """CSR plus a length-descending row permutation."""

    csr: CSRMatrix
    row_order: np.ndarray


def build_row_swizzle(csr: CSRMatrix) -> RowSwizzleFormat:
    order = np.argsort(-csr.row_degrees(), kind="stable").astype(np.int32)
    return RowSwizzleFormat(csr=csr, row_order=order)
