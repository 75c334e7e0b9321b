"""Synthetic graph generators standing in for the paper's datasets.

The kernels' relative performance depends on |V|, |E| and the *degree
distribution* (skew drives workload imbalance; locality drives reuse),
not on which real-world graph supplied them.  Each generator below
produces a CSR-ordered, undirected (symmetrized) :class:`COOMatrix`
matching one structural class from Table 1:

* :func:`rmat` — Kronecker/R-MAT power-law graphs (Kron-21, social webs);
* :func:`power_law` — configuration-model graphs with tunable exponent
  (hollywood, orkut, LiveJournal, stackoverflow);
* :func:`road_grid` — near-uniform low-degree lattices (roadNet-CA);
* :func:`web_graph` — copy-model web crawls with extreme hubs
  (web-BerkStan, uk-2002/2005);
* :func:`erdos_renyi` — flat-degree baselines (citation networks).

All are deterministic given a seed.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.sparse.convert import symmetrize
from repro.sparse.coo import COOMatrix
from repro.utils.rng import default_rng


def _finalize(
    num_vertices: int,
    rows: np.ndarray,
    cols: np.ndarray,
) -> COOMatrix:
    """The edge list as a CSR-ordered, symmetrized COO without self loops."""
    coo = COOMatrix.from_edges(num_vertices, num_vertices, rows, cols)
    if coo.nnz:
        keep = coo.rows != coo.cols
        coo = COOMatrix(num_vertices, num_vertices, coo.rows[keep], coo.cols[keep])
    return symmetrize(coo)


def erdos_renyi(
    num_vertices: int,
    num_edges: int,
    *,
    seed: int | np.random.Generator | None = None,
) -> COOMatrix:
    """Uniform random graph with ~``num_edges`` directed edges pre-symmetrization."""
    if num_vertices <= 1:
        raise ConfigError("need at least 2 vertices")
    rng = default_rng(seed)
    rows = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    cols = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    return _finalize(num_vertices, rows, cols)


def rmat(
    scale: int,
    edge_factor: int = 16,
    *,
    seed: int | np.random.Generator | None = None,
) -> COOMatrix:
    """R-MAT / Kronecker generator (the Graph500 Kron-21 recipe, scaled).

    ``2**scale`` vertices, ``edge_factor * 2**scale`` edges drawn by
    recursively descending the adjacency matrix quadrants with
    the Graph500 probabilities (a, b, c, d) = (0.57, 0.19, 0.19, 0.05).
    """
    a, b, c = 0.57, 0.19, 0.19
    rng = default_rng(seed)
    n = 1 << scale
    m = edge_factor * n
    rows = np.zeros(m, dtype=np.int64)
    cols = np.zeros(m, dtype=np.int64)
    for _ in range(scale):
        u = rng.random(m)
        rows <<= 1
        cols <<= 1
        go_down = u >= a + b  # quadrants c, d
        go_right = (u >= a) & (u < a + b) | (u >= a + b + c)  # quadrants b, d
        rows += go_down
        cols += go_right
    return _finalize(n, rows, cols)


#: Maximum fraction of all edges a single hub vertex may hold.  Real
#: graphs at paper scale concentrate at most ~0.2-0.3% of edges on one
#: hub; naive down-scaling would exaggerate that share (the Zipf head
#: shrinks slower than the tail), overstating imbalance, so generators
#: clip to this share.
MAX_HUB_EDGE_SHARE = 0.003


def power_law(
    num_vertices: int,
    avg_degree: float,
    *,
    exponent: float = 2.1,
    seed: int | np.random.Generator | None = None,
) -> COOMatrix:
    """Configuration-model graph with a Zipf-like degree distribution."""
    if avg_degree <= 0:
        raise ConfigError("avg_degree must be positive")
    rng = default_rng(seed)
    # Zipf weights normalized to the requested mean degree.
    ranks = np.arange(1, num_vertices + 1, dtype=np.float64)
    weights = ranks ** (-1.0 / (exponent - 1.0))
    weights *= avg_degree * num_vertices / weights.sum()
    cap = max(32.0, MAX_HUB_EDGE_SHARE * avg_degree * num_vertices)
    weights = np.minimum(weights, cap)
    degrees = rng.poisson(weights)
    stubs = np.repeat(np.arange(num_vertices, dtype=np.int64), degrees)
    rng.shuffle(stubs)
    if stubs.size % 2:
        stubs = stubs[:-1]
    half = stubs.size // 2
    return _finalize(num_vertices, stubs[:half], stubs[half:])


#: share of web-graph edges whose target is copied from a hub
COPY_PROB = 0.65


def web_graph(
    num_vertices: int,
    avg_degree: float,
    *,
    seed: int | np.random.Generator | None = None,
) -> COOMatrix:
    """Copy-model crawl graph: heavy hubs plus long low-degree tail.

    Each new edge either copies an existing edge's target (preferential
    attachment, probability :data:`COPY_PROB`) or picks uniformly, yielding
    the extreme skew of web crawls like uk-2002 / web-BerkStan.
    """
    rng = default_rng(seed)
    m = int(num_vertices * avg_degree)
    rows = rng.integers(0, num_vertices, size=m, dtype=np.int64)
    cols = np.empty(m, dtype=np.int64)
    # Vectorized approximation of sequential copying: targets are copied
    # from a prefix-biased sample of earlier targets.
    uniform = rng.integers(0, num_vertices, size=m, dtype=np.int64)
    cols[:] = uniform
    copy_mask = rng.random(m) < COPY_PROB
    # Preferential targets: draw from a small hub set with Zipf weights,
    # truncated so no hub exceeds MAX_HUB_EDGE_SHARE of the edges.
    hub_count = max(4, num_vertices // 100)
    hub_ids = rng.choice(num_vertices, size=hub_count, replace=False)
    zipf_w = 1.0 / np.arange(1, hub_count + 1)
    zipf_w /= zipf_w.sum()
    zipf_w = np.minimum(zipf_w, MAX_HUB_EDGE_SHARE / COPY_PROB)
    zipf_w /= zipf_w.sum()
    cols[copy_mask] = hub_ids[
        rng.choice(hub_count, size=int(copy_mask.sum()), p=zipf_w)
    ]
    return _finalize(num_vertices, rows, cols)


def road_grid(
    side: int,
    *,
    seed: int | np.random.Generator | None = None,
) -> COOMatrix:
    """2-D lattice with a few shortcuts: the roadNet-CA stand-in.

    One random shortcut per 20 vertices leaves degrees nearly uniform
    (2-4), so vertex-parallel kernels are *not* badly imbalanced here —
    reproducing the paper's smaller (but still positive) speedups on
    road networks.
    """
    if side < 2:
        raise ConfigError("side must be >= 2")
    rng = default_rng(seed)
    n = side * side
    idx = np.arange(n).reshape(side, side)
    right = np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()])
    down = np.stack([idx[:-1, :].ravel(), idx[1:, :].ravel()])
    rows = np.concatenate([right[0], down[0]])
    cols = np.concatenate([right[1], down[1]])
    extra = int(n * 0.05)
    if extra:
        rows = np.concatenate([rows, rng.integers(0, n, extra)])
        cols = np.concatenate([cols, rng.integers(0, n, extra)])
    return _finalize(n, rows, cols)
