"""The fast SDDMM gather and sort-based distinct counts match their
previous forms bit for bit.

The oracles below are frozen copies of the code they replaced: the
row-major gathered dot and the per-window ``np.unique`` atomic conflict
loop.  Every check is ``np.array_equal`` / ``==``, never a tolerance.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import get_engine
from repro.exec.numerics import sddmm_serial
from repro.gpusim.atomics import conflict_degree
from repro.resilience import no_faults
from repro.sparse import COOMatrix
from repro.utils import sorted_distinct

ROOT = Path(__file__).resolve().parents[1]


# ------------------------------------------------------------------ oracles
def _gathered_dot(Xg: np.ndarray, Yg: np.ndarray) -> np.ndarray:
    """Row-major gathered dot: the SDDMM numerics before the feature-major gather."""
    out = np.zeros(Xg.shape[0], dtype=np.result_type(Xg.dtype, Yg.dtype, np.float64))
    for k in range(Xg.shape[1]):
        out += Xg[:, k] * Yg[:, k]
    return out


def oracle_sddmm(A: COOMatrix, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    X, Y = np.asarray(X), np.asarray(Y)
    return _gathered_dot(X[A.rows], Y[A.cols])


def oracle_conflict_degree(target_rows: np.ndarray, window: int = 256) -> float:
    rows = np.asarray(target_rows)
    if rows.size == 0:
        return 1.0
    chunks = []
    for start in range(0, rows.size, window):
        _, counts = np.unique(rows[start : start + window], return_counts=True)
        chunks.append(float((counts * counts).sum() / counts.sum()))
    return float(np.asarray(chunks).mean())


# ------------------------------------------------------------------ SDDMM
def _layout(X: np.ndarray, how: str) -> np.ndarray:
    """The same values as ``X`` in a different memory layout."""
    if how == "fortran":
        return np.asfortranarray(X)
    if how == "sliced":  # a strided column view of a wider array
        wide = np.zeros((X.shape[0], 2 * X.shape[1] + 1), dtype=X.dtype)
        wide[:, 1::2] = X
        return wide[:, 1::2]
    return X


@st.composite
def sddmm_case(draw):
    n = draw(st.integers(1, 30))
    nnz = draw(st.integers(0, 150))
    F = draw(st.sampled_from([0, 1, 3, 8, 17]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    topology = draw(st.sampled_from(["sorted", "unsorted", "hub"]))
    if topology == "hub":  # every edge leaves row 0
        rows = np.zeros(nnz, dtype=np.int64)
    else:
        rows = rng.integers(0, n, nnz)
    cols = rng.integers(0, n, nnz)
    if topology == "unsorted":
        A = COOMatrix(n, n, rows, cols)
    else:
        A = COOMatrix.from_edges(n, n, rows, cols, deduplicate=False)
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    X = rng.standard_normal((n, F)).astype(dtype)
    Y = rng.standard_normal((n, F)).astype(dtype)
    X = _layout(X, draw(st.sampled_from(["c", "fortran", "sliced"])))
    return A, X, Y, rng


@given(case=sddmm_case())
@settings(max_examples=80, deadline=None)
def test_sddmm_serial_equals_row_major_oracle(case):
    A, X, Y, _ = case
    expect = oracle_sddmm(A, X, Y)
    got = sddmm_serial(A, X, Y)
    assert got.dtype == expect.dtype
    assert np.array_equal(got, expect)


@given(case=sddmm_case())
@settings(max_examples=40, deadline=None)
def test_engine_sddmm_equals_row_major_oracle(case):
    A, X, Y, _ = case
    # The engine computes in float64 whatever the input precision.
    expect = oracle_sddmm(A, X.astype(np.float64), Y.astype(np.float64))
    with no_faults():
        got = get_engine().sddmm(A, X, Y)
    assert np.array_equal(got, expect)


def test_sddmm_named_edge_cases():
    rng = np.random.default_rng(7)
    empty = COOMatrix(4, 4, np.zeros(0, int), np.zeros(0, int))
    X = rng.standard_normal((4, 5))
    assert sddmm_serial(empty, X, X).shape == (0,)
    hub = COOMatrix.from_edges(9, 9, np.zeros(8, int), np.arange(1, 9))
    no_features = np.zeros((9, 0))
    assert np.array_equal(sddmm_serial(hub, no_features, no_features), np.zeros(8))
    Xh = rng.standard_normal((9, 6))
    assert np.array_equal(sddmm_serial(hub, Xh, Xh), oracle_sddmm(hub, Xh, Xh))


# ------------------------------------------------------- distinct counts
int_arrays = st.builds(
    lambda values, dtype: np.asarray(values, dtype=dtype),
    st.lists(st.integers(-(2**31), 2**31 - 1), max_size=200),
    st.sampled_from([np.int32, np.int64]),
)


@given(a=int_arrays)
@settings(max_examples=150, deadline=None)
def test_sorted_distinct_equals_np_unique(a):
    got, expect = sorted_distinct(a), np.unique(a)
    assert got.dtype == expect.dtype
    assert np.array_equal(got, expect)


@pytest.mark.parametrize(
    "a",
    [
        np.zeros(0, dtype=np.int64),
        np.zeros(0, dtype=np.int32),
        np.array([5], dtype=np.int32),
        np.array([-3, -3, -1, -7, 0, -1]),
        np.array([[4, 1], [1, 4]], dtype=np.int32),
    ],
    ids=["empty", "empty-int32", "single", "negative", "2d"],
)
def test_sorted_distinct_named_cases(a):
    got, expect = sorted_distinct(a), np.unique(a)
    assert got.dtype == expect.dtype
    assert np.array_equal(got, expect)


@given(
    rows=st.lists(st.integers(-5, 40), max_size=1200),
    window=st.sampled_from([1, 3, 32, 256]),
)
@settings(max_examples=100, deadline=None)
def test_conflict_degree_equals_per_window_oracle(rows, window):
    rows = np.asarray(rows, dtype=np.int64)
    assert conflict_degree(rows, window) == oracle_conflict_degree(rows, window)


def test_conflict_degree_hub_and_distinct():
    assert conflict_degree(np.zeros(256, dtype=np.int32)) == 256.0
    assert conflict_degree(np.arange(1000)) == 1.0
    tail = np.r_[np.zeros(300, int), np.arange(50)]
    assert conflict_degree(tail) == oracle_conflict_degree(tail)


# --------------------------------------------------------------- guard
def np_unique_calls(source: str) -> list[int]:
    """Lines calling ``np.unique``/``numpy.unique`` or importing ``unique`` from numpy."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "unique"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in {"np", "numpy"}
        ):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            if any(alias.name == "unique" for alias in node.names):
                lines.append(node.lineno)
    return lines


def test_unique_detector_catches_each_spelling():
    source = (
        "import numpy as np\n"
        "import numpy\n"
        "from numpy import unique\n"
        "a = np.unique(x)\n"
        "b = numpy.unique(x, return_counts=True)\n"
        "c = np.sort(x)\n"
        "d = '''np.unique(x) in a string'''\n"
    )
    assert np_unique_calls(source) == [3, 4, 5]


def test_no_np_unique_under_src():
    """Distinct counts go through ``repro.utils.sorted_distinct``: numpy's
    hash-based ``np.unique`` dominated the simulator's wall time."""
    offenders = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
        for line in np_unique_calls(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
