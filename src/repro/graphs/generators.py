"""Synthetic graph generators.

The paper's graphs (Paper100M, IGB-HOM, UK-2014, ClueWeb) are web/
citation graphs with heavy-tailed degree distributions — the skewness
DDAK exploits.  We instantiate scaled stand-ins with:

* :func:`rmat_graph` — Recursive MATrix (Chakrabarti et al.) power-law
  generator, the standard synthetic stand-in for web graphs (Graph500
  uses it);
* :func:`power_law_graph` — Chung–Lu style expected-degree model with a
  configurable Zipf exponent, for precise skew control.  Its endpoint
  draws use a guide-table inverse-CDF lookup (Chen & Asau, 1974) that
  returns exactly what ``rng.choice(n, size, p=weights)`` returns and
  consumes the same ``rng.random(size)`` doubles, so the graph and every
  later draw from the generator are those ``rng.choice`` gives;
* :func:`erdos_renyi_graph` — uniform baseline, used in tests and
  ablations as the "no skew" control.

All generators are vectorised and deterministic given a seed.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.utils.rng import SeedLike, ensure_rng

#: Guide-table buckets per vertex.  Each key starts at its bucket's first
#: candidate and scans forward; measured over 2.5 M keys, 1 bucket per
#: vertex needs 8 scan passes (0.28 s), 2 take 0.148 s, 4 take 0.146 s
#: and 8 take 0.181 s, as the table itself outgrows the cache.
GUIDE_BUCKETS_PER_VERTEX = 4


def _guide_table(weights: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The CDF ``Generator.choice`` builds from ``p=weights``, and a guide
    table over it: ``guide[j]`` is the first index whose CDF value
    exceeds ``j / K``, for ``K = GUIDE_BUCKETS_PER_VERTEX * len(weights)``.
    """
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    k = GUIDE_BUCKETS_PER_VERTEX * weights.size
    return cdf, cdf.searchsorted(np.arange(k) / k, side="right")


def _weighted_choice(
    rng: np.random.Generator, cdf: np.ndarray, guide: np.ndarray, size: int
) -> np.ndarray:
    """``rng.choice(len(cdf), size, p=weights)`` for the table of
    :func:`_guide_table`: the same ``rng.random(size)`` keys, each mapped
    to ``cdf.searchsorted(u, side="right")``.

    A key ``u`` in bucket ``b = floor(u * K)`` starts at ``guide[b - 1]``:
    ``(b - 1) / K < u`` even after rounding, so the start is never past
    the answer.  Stepping forward while ``cdf[idx] <= u`` then stops at
    the first index with ``cdf[idx] > u``, which is the searchsorted
    answer because ``cdf`` is non-decreasing, and it stays in bounds
    because ``cdf[-1] == 1.0 > u``.
    """
    u = rng.random(size)
    idx = (u * guide.size).astype(np.int64)
    idx -= 1
    np.maximum(idx, 0, out=idx)
    idx = guide[idx]
    todo = np.flatnonzero(cdf[idx] <= u)
    while todo.size:
        idx[todo] += 1
        todo = todo[cdf[idx[todo]] <= u[todo]]
    return idx


def rmat_graph(
    num_vertices: int,
    num_edges: int,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: SeedLike = None,
    feature_dim: int = 1024,
) -> CSRGraph:
    """R-MAT power-law graph (defaults are the Graph500 parameters).

    ``num_vertices`` is rounded up to the next power of two internally
    and truncated back by modular mapping, which preserves the skew.
    """
    if num_vertices < 2:
        raise ValueError("need at least 2 vertices")
    if num_edges < 1:
        raise ValueError("need at least 1 edge")
    d = 1.0 - a - b - c
    if d < 0 or min(a, b, c) < 0:
        raise ValueError("R-MAT probabilities must be non-negative and sum <= 1")
    rng = ensure_rng(seed)
    levels = int(np.ceil(np.log2(num_vertices)))
    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    # Each level: choose a quadrant for every edge simultaneously.
    for _ in range(levels):
        r = rng.random(num_edges)
        right = (r >= a + c) | ((r >= a) & (r < a + b))  # quadrants b, d
        down = r >= a + b  # quadrants c, d
        src = (src << 1) | down.astype(np.int64)
        dst = (dst << 1) | right.astype(np.int64)
    src %= num_vertices
    dst %= num_vertices
    keep = src != dst
    return CSRGraph.from_edges(
        num_vertices, src[keep], dst[keep], feature_dim=feature_dim
    )


def power_law_graph(
    num_vertices: int,
    avg_degree: float,
    exponent: float = 0.8,
    seed: SeedLike = None,
    feature_dim: int = 1024,
) -> CSRGraph:
    """Chung–Lu graph whose expected degrees follow ``rank^-exponent``.

    ``exponent`` near 0 is uniform; 0.8–1.0 resembles web graphs.  Both
    endpoints of each edge are drawn from the same Zipf weights, so hub
    vertices have high in- *and* out-degree — matching the access skew
    the paper reports (a small vertex set accessed far more often).

    The endpoints come from :func:`_weighted_choice` over one guide table:
    each draw equals ``rng.choice(num_vertices, size=num_edges,
    p=weights)`` index for index and consumes the same random stream.
    """
    if num_vertices < 2:
        raise ValueError("need at least 2 vertices")
    if avg_degree <= 0:
        raise ValueError("avg_degree must be positive")
    if exponent < 0:
        raise ValueError("exponent must be >= 0")
    rng = ensure_rng(seed)
    num_edges = int(num_vertices * avg_degree)
    weights = (np.arange(1, num_vertices + 1, dtype=np.float64)) ** (-exponent)
    weights /= weights.sum()
    # Shuffle hub identity so vertex id does not encode hotness.
    perm = rng.permutation(num_vertices)
    cdf, guide = _guide_table(weights)
    src = perm[_weighted_choice(rng, cdf, guide, num_edges)]
    dst = perm[_weighted_choice(rng, cdf, guide, num_edges)]
    keep = src != dst
    # rebinding drops the unfiltered arrays before the CSR build's peak
    src, dst = src[keep], dst[keep]
    return CSRGraph.from_edges(num_vertices, src, dst, feature_dim=feature_dim)


def erdos_renyi_graph(
    num_vertices: int,
    avg_degree: float,
    seed: SeedLike = None,
    feature_dim: int = 1024,
) -> CSRGraph:
    """Uniform random graph with the given expected out-degree."""
    if num_vertices < 2:
        raise ValueError("need at least 2 vertices")
    if avg_degree <= 0:
        raise ValueError("avg_degree must be positive")
    rng = ensure_rng(seed)
    num_edges = int(num_vertices * avg_degree)
    src = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    dst = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    keep = src != dst
    return CSRGraph.from_edges(
        num_vertices, src[keep], dst[keep], feature_dim=feature_dim
    )


def community_graph(
    num_vertices: int,
    avg_degree: float,
    num_communities: int = 8,
    exponent: float = 0.8,
    cross_fraction: float = 0.05,
    seed: SeedLike = None,
    feature_dim: int = 1024,
) -> CSRGraph:
    """Power-law communities with sparse cross edges.

    Each community is its own Chung–Lu power-law subgraph over a
    contiguous vertex range, plus ``cross_fraction`` of edges drawn
    uniformly across the whole graph.  Hubs are therefore *local to
    their community* — training seeds drawn from one community heat up
    that community's hubs, which is the access-drift pattern the
    adaptive-placement extension (paper Section 5) targets.
    """
    if num_communities < 1 or num_communities > num_vertices:
        raise ValueError("need 1 <= num_communities <= num_vertices")
    if not 0.0 <= cross_fraction <= 1.0:
        raise ValueError("cross_fraction must be in [0, 1]")
    rng = ensure_rng(seed)
    bounds = np.linspace(0, num_vertices, num_communities + 1).astype(np.int64)
    srcs, dsts = [], []
    for c in range(num_communities):
        lo, hi = int(bounds[c]), int(bounds[c + 1])
        size = hi - lo
        if size < 2:
            continue
        local = power_law_graph(
            size, avg_degree * (1 - cross_fraction), exponent, seed=rng,
            feature_dim=feature_dim,
        )
        src = np.repeat(
            np.arange(size, dtype=np.int64), np.diff(local.indptr)
        )
        srcs.append(src + lo)
        dsts.append(local.indices + lo)
    n_cross = int(num_vertices * avg_degree * cross_fraction)
    if n_cross:
        srcs.append(rng.integers(0, num_vertices, n_cross, dtype=np.int64))
        dsts.append(rng.integers(0, num_vertices, n_cross, dtype=np.int64))
    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    keep = src != dst
    return CSRGraph.from_edges(
        num_vertices, src[keep], dst[keep], feature_dim=feature_dim
    )


def degree_gini(graph: CSRGraph) -> float:
    """Gini coefficient of the out-degree distribution in [0, 1).

    A scale-free skew measure used by tests and the dataset registry to
    verify generated graphs are "web-like" (paper graphs: high skew).
    """
    degs = np.sort(graph.out_degree().astype(np.float64))
    n = degs.size
    if n == 0 or degs.sum() == 0:
        return 0.0
    cum = np.cumsum(degs)
    # Gini = 1 - 2 * area under the Lorenz curve (midpoint rule)
    lorenz = cum / cum[-1]
    area = float((lorenz.sum() - 0.5 * lorenz[-1]) / n)
    return float(1.0 - 2.0 * area)
