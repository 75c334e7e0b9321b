"""The execution engine: one serial dispatcher for host-side kernel numerics.

After the structural plan cache, a warm kernel launch runs *only* its
numerics.  Every kernel ``compute()`` reaches them through
:func:`get_engine`, which hands out one stateless
:class:`ExecutionEngine`; its ``spmm``/``spmv``/``sddmm``/``gat_alpha``
call the serial functions of :mod:`repro.exec.numerics` directly.

The engine only runs host work, so simulated device times never depend
on it.  It runs every launch on the caller's thread: splitting launches
over a thread pool lost on the training workload and gained on the
sweep only within its bounds (DESIGN §5.6).
"""

from __future__ import annotations

import numpy as np

from repro.exec import numerics
from repro.sparse.coo import COOMatrix


class ExecutionEngine:
    """Stateless serial dispatcher for SpMM/SpMV/SDDMM/GAT numerics."""

    def spmm(self, A: COOMatrix, edge_values: np.ndarray, X: np.ndarray) -> np.ndarray:
        """``Y = A_w @ X``."""
        X = np.asarray(X, dtype=np.float64)
        return numerics.csr_spmm_serial(A, edge_values, X)

    def spmv(self, A: COOMatrix, edge_values: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``y = A_w @ x``."""
        x = np.asarray(x, dtype=np.float64)
        return numerics.csr_spmm_serial(A, edge_values, x)

    def sddmm(self, A: COOMatrix, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """``W[e] = <X[row_e], Y[col_e]>`` in the caller's edge order."""
        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(Y, dtype=np.float64)
        return numerics.sddmm_serial(A, X, Y)

    def gat_alpha(
        self,
        A: COOMatrix,
        el: np.ndarray,
        er: np.ndarray,
    ) -> np.ndarray:
        """Fused-GAT edge softmax (scores + segment softmax).

        ``A`` must be CSR-ordered (the fused kernels sort first).
        """
        el = np.asarray(el, dtype=np.float64)
        er = np.asarray(er, dtype=np.float64)
        return numerics.gat_edge_softmax_serial(A, el, er)

    def release(self, buf: np.ndarray) -> bool:
        """Accept an output the caller is done with; always ``False``.

        Outputs are plain arrays owned by the caller, so nothing is
        recycled.  Callers that only read a launch's simulated time
        (the benchmark sweep) hand their outputs back through here.
        """
        return False


_default = ExecutionEngine()


def get_engine() -> ExecutionEngine:
    """The process-global engine every kernel ``compute()`` consults."""
    return _default
