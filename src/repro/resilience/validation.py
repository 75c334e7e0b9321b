"""Graph validation boundary: typed reports instead of deep tracebacks.

Everything downstream of a :class:`~repro.sparse.coo.COOMatrix` —
plan-cache keys, scipy CSR views, kernel traces — assumes
the structural contract of the CSR-ordered COO: indices in range,
entries sorted by (row, col), no NaN leaking in through features.  A
violation used to surface as an ``IndexError`` from scipy internals or
a silent NaN in epoch 40's loss; :func:`validate_graph` checks the
contract *at the boundary* and returns a :class:`ValidationReport`
census (duplicate edges, empty rows, ordering) that
:meth:`ValidationReport.raise_if_invalid` turns into a structured
:class:`~repro.errors.GraphValidationError`.

The structural half is value-independent, so
:func:`ensure_structure_validated` memoizes the verdict on the matrix
instance — kernel dispatch pays one attribute check per call after the
first launch on a topology.  Features are checked once, at training
entry (:class:`repro.nn.graph.GraphData`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import GraphValidationError
from repro.utils.arrays import sorted_distinct

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sparse.coo import COOMatrix


@dataclass
class ValidationReport:
    """Census of one graph (plus optional feature matrix) at the boundary."""

    num_rows: int
    num_cols: int
    nnz: int
    csr_ordered: bool = True
    index_in_range: bool = True
    duplicate_edges: int = 0
    empty_rows: int = 0
    finite_features: bool = True
    #: human-readable contract violations (empty list == valid)
    problems: list[str] = field(default_factory=list)
    #: first offending edge index, when a violation can be pinpointed
    first_bad_edge: int | None = None

    @property
    def ok(self) -> bool:
        return not self.problems

    def raise_if_invalid(self) -> "ValidationReport":
        if self.problems:
            raise GraphValidationError(
                "graph validation failed: " + "; ".join(self.problems),
                edge_index=self.first_bad_edge,
            )
        return self

    def to_dict(self) -> dict:
        return {
            "num_rows": self.num_rows,
            "num_cols": self.num_cols,
            "nnz": self.nnz,
            "csr_ordered": self.csr_ordered,
            "index_in_range": self.index_in_range,
            "duplicate_edges": self.duplicate_edges,
            "empty_rows": self.empty_rows,
            "finite_features": self.finite_features,
            "ok": self.ok,
            "problems": list(self.problems),
        }


def _first_true(mask: np.ndarray) -> int:
    return int(np.argmax(mask))


def validate_graph(
    coo: "COOMatrix",
    features: np.ndarray | None = None,
    *,
    require_sorted: bool = False,
) -> ValidationReport:
    """Run the full boundary census on a COO topology.

    Checks index ranges, (row, col) ordering, duplicate edges and empty
    rows on the structure; when ``features`` is given, additionally
    requires every value to be finite.  Returns the report — callers
    decide whether a finding is fatal via
    :meth:`ValidationReport.raise_if_invalid` (ordering is only fatal
    with ``require_sorted=True``; the kernels re-sort unsorted inputs).
    """
    rows, cols = coo.rows, coo.cols
    report = ValidationReport(coo.num_rows, coo.num_cols, int(rows.shape[0]))

    if rows.shape != cols.shape:
        report.problems.append(
            f"rows/cols length mismatch: {rows.shape} vs {cols.shape}"
        )
        return report

    if report.nnz:
        bad_row = (rows < 0) | (rows >= coo.num_rows)
        bad_col = (cols < 0) | (cols >= coo.num_cols)
        if bad_row.any():
            report.index_in_range = False
            e = _first_true(bad_row)
            report.first_bad_edge = e
            report.problems.append(
                f"row index {int(rows[e])} out of range [0, {coo.num_rows}) "
                f"at edge {e}"
            )
        if bad_col.any():
            report.index_in_range = False
            e = _first_true(bad_col)
            if report.first_bad_edge is None:
                report.first_bad_edge = e
            report.problems.append(
                f"column index {int(cols[e])} out of range [0, {coo.num_cols}) "
                f"at edge {e}"
            )

    if report.index_in_range and report.nnz > 1:
        key = rows.astype(np.int64) * (coo.num_cols + 1) + cols.astype(np.int64)
        order_ok = key[1:] >= key[:-1]
        report.csr_ordered = bool(order_ok.all())
        if not report.csr_ordered and require_sorted:
            e = _first_true(~order_ok) + 1
            if report.first_bad_edge is None:
                report.first_bad_edge = e
            report.problems.append(
                f"entries not in (row, col) order: edge {e} precedes edge {e - 1}"
            )
        if report.csr_ordered:
            report.duplicate_edges = int(np.count_nonzero(key[1:] == key[:-1]))
        else:
            report.duplicate_edges = int(report.nnz - sorted_distinct(key).size)

    if report.index_in_range and coo.num_rows:
        occupied = np.zeros(coo.num_rows, dtype=bool)
        if report.nnz:
            occupied[rows] = True
        report.empty_rows = int(coo.num_rows - np.count_nonzero(occupied))

    if features is not None:
        features = np.asarray(features)
        finite = np.isfinite(features)
        if not finite.all():
            report.finite_features = False
            flat = _first_true(~finite.ravel())
            report.problems.append(
                f"non-finite feature value at flat position {flat} "
                f"(shape {features.shape})"
            )

    return report


#: instance attribute memoizing the verdict (topology is immutable by
#: convention, so one census per matrix object is enough)
_VALIDATED_ATTR = "_resilience_validated"


def ensure_structure_validated(coo: "COOMatrix") -> None:
    """Validate a topology once per instance.

    The memoized fast path is a single ``getattr`` — cheap enough for
    every kernel ``__call__``.  A failed census raises
    :class:`~repro.errors.GraphValidationError` and is *not* memoized,
    so a later call on a (hypothetically repaired) matrix re-checks.
    """
    if getattr(coo, _VALIDATED_ATTR, False):
        return
    report = validate_graph(coo)
    report.raise_if_invalid()
    object.__setattr__(coo, _VALIDATED_ATTR, True)
