"""Graph persistence: NPZ snapshots and MatrixMarket / edge-list parsing.

The paper's datasets come from SNAP, the SuiteSparse collection
(MatrixMarket ``.mtx`` files) and Graph500; this module lets a user drop
in the real files where available, and caches generated stand-ins as
compressed NPZ so the benchmark suite doesn't regenerate per run.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro import settings
from repro.errors import FormatError
from repro.sparse.convert import symmetrize
from repro.sparse.coo import COOMatrix


def save_npz(coo: COOMatrix, path: str | os.PathLike) -> None:
    """Save a COO topology as a compressed NPZ archive."""
    np.savez_compressed(
        path,
        num_rows=coo.num_rows,
        num_cols=coo.num_cols,
        rows=coo.rows,
        cols=coo.cols,
    )


def load_npz(path: str | os.PathLike) -> COOMatrix:
    with np.load(path) as data:
        return COOMatrix(
            int(data["num_rows"]), int(data["num_cols"]), data["rows"], data["cols"]
        )


def parse_edge_list(
    text_or_path: str | os.PathLike,
    *,
    num_vertices: int | None = None,
    comment_chars: str = "#%",
    undirected: bool = True,
) -> COOMatrix:
    """Parse a SNAP-style whitespace edge list (``src dst`` per line)."""
    path = Path(text_or_path)
    if path.exists():
        lines = path.read_text().splitlines()
    else:
        lines = str(text_or_path).splitlines()
    srcs: list[int] = []
    dsts: list[int] = []
    for line in lines:
        line = line.strip()
        if not line or line[0] in comment_chars:
            continue
        parts = line.split()
        if len(parts) < 2:
            raise FormatError(f"bad edge-list line: {line!r}")
        srcs.append(int(parts[0]))
        dsts.append(int(parts[1]))
    if not srcs:
        n = num_vertices or 0
        return COOMatrix(n, n, np.array([], dtype=np.int32), np.array([], dtype=np.int32))
    rows = np.asarray(srcs, dtype=np.int64)
    cols = np.asarray(dsts, dtype=np.int64)
    n = num_vertices if num_vertices is not None else int(max(rows.max(), cols.max())) + 1
    coo = COOMatrix.from_edges(n, n, rows, cols)
    return symmetrize(coo) if undirected else coo


def parse_matrix_market(text_or_path: str | os.PathLike, *, undirected: bool | None = None) -> COOMatrix:
    """Parse a MatrixMarket coordinate file (pattern or real entries).

    Handles the ``%%MatrixMarket matrix coordinate ... (general|symmetric)``
    header; symmetric matrices are expanded unless ``undirected=False``.
    """
    path = Path(text_or_path)
    if path.exists():
        lines = path.read_text().splitlines()
    else:
        lines = str(text_or_path).splitlines()
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise FormatError("missing MatrixMarket header")
    header = lines[0].lower().split()
    if "coordinate" not in header:
        raise FormatError("only coordinate MatrixMarket files are supported")
    symmetric = "symmetric" in header
    body = [ln for ln in lines[1:] if ln.strip() and not ln.lstrip().startswith("%")]
    if not body:
        raise FormatError("empty MatrixMarket body")
    dims = body[0].split()
    if len(dims) < 3:
        raise FormatError(f"bad size line: {body[0]!r}")
    n_rows, n_cols, nnz = int(dims[0]), int(dims[1]), int(dims[2])
    rows = np.empty(nnz, dtype=np.int64)
    cols = np.empty(nnz, dtype=np.int64)
    if len(body) - 1 < nnz:
        raise FormatError(f"expected {nnz} entries, found {len(body) - 1}")
    for i, line in enumerate(body[1 : nnz + 1]):
        parts = line.split()
        rows[i] = int(parts[0]) - 1  # 1-indexed
        cols[i] = int(parts[1]) - 1
    coo = COOMatrix.from_edges(n_rows, n_cols, rows, cols)
    expand = symmetric if undirected is None else undirected
    if expand and n_rows == n_cols:
        coo = symmetrize(coo)
    return coo


def cache_dir() -> Path:
    """Directory used to cache generated dataset stand-ins."""
    root = Path(settings.get().cache_dir or Path.home() / ".cache" / "repro")
    root.mkdir(parents=True, exist_ok=True)
    return root


def load_cached(key: str, builder, seed: int = 7) -> COOMatrix:
    """Load ``key`` from the NPZ cache, building (and caching) on miss."""
    path = cache_dir() / f"{key}-s{seed}.npz"
    if path.exists():
        try:
            return load_npz(path)
        except Exception:
            path.unlink(missing_ok=True)
    coo = builder(seed)
    save_npz(coo, path)
    return coo
