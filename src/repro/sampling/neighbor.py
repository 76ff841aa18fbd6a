"""K-hop uniform neighbour sampling over CSR graphs (paper Section 2.1).

The paper's models use 2-hop random neighbour sampling with fan-outs
[25, 10].  GPU samplers draw *with replacement* from each vertex's
neighbour list (DGL semantics); we reproduce that, fully vectorised —
one ``Generator.random`` call per hop regardless of frontier size.

A :class:`MiniBatchSample` records, per hop, the frontier and sampled
edges, plus the deduplicated vertex set whose features must be fetched
— the quantity that drives all I/O traffic in the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.graphs.csr import CSRGraph, sorted_unique
from repro.utils.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class SampledLayer:
    """One hop of sampling: ``src[i] -> dst[i]`` sampled edges.

    ``src`` are frontier vertices (repeated per sampled neighbour) and
    ``dst`` the sampled neighbours.
    """

    src: np.ndarray
    dst: np.ndarray

    @property
    def num_edges(self) -> int:
        """Sampled edges in this hop."""
        return int(self.src.size)


@dataclass(frozen=True)
class MiniBatchSample:
    """A sampled computation subgraph for one seed mini-batch."""

    seeds: np.ndarray
    layers: Tuple[SampledLayer, ...]
    #: Deduplicated ids of every vertex appearing anywhere in the
    #: subgraph (seeds + all sampled neighbours) — the feature-fetch set.
    unique_vertices: np.ndarray

    @property
    def num_edges(self) -> int:
        """Total sampled edges across all hops."""
        return sum(layer.num_edges for layer in self.layers)

    @property
    def num_unique(self) -> int:
        """Distinct vertices whose features must be fetched."""
        return int(self.unique_vertices.size)

    def feature_bytes(self, bytes_per_vertex: int) -> int:
        """Bytes of embeddings this batch must gather."""
        return self.num_unique * bytes_per_vertex


def sample_neighbors(
    graph: CSRGraph,
    frontier: np.ndarray,
    fanout: int,
    rng: np.random.Generator,
) -> SampledLayer:
    """Sample ``fanout`` neighbours (with replacement) per frontier vertex.

    Zero-degree vertices contribute no edges.  Vectorised: cost is
    O(|frontier| * fanout) with no Python-level loop.
    """
    if fanout < 1:
        raise ValueError("fanout must be >= 1")
    frontier = np.asarray(frontier, dtype=np.int64)
    starts = graph.indptr[frontier]
    degs = graph.indptr[frontier + 1] - starts
    has_nbrs = degs > 0
    if not has_nbrs.any():
        empty = np.empty(0, dtype=np.int64)
        return SampledLayer(empty, empty)
    f_starts = starts[has_nbrs]
    f_degs = degs[has_nbrs]
    f_src = frontier[has_nbrs]
    offsets = (rng.random((f_src.size, fanout)) * f_degs[:, None]).astype(np.int64)
    dst = graph.indices[(f_starts[:, None] + offsets).ravel()]
    src = np.repeat(f_src, fanout)
    return SampledLayer(src, dst)


def sample_batch(
    graph: CSRGraph,
    seeds: np.ndarray,
    fanouts: Sequence[int],
    seed: SeedLike = None,
) -> MiniBatchSample:
    """Multi-hop sampling: hop ``l`` expands the previous hop's unique
    frontier with ``fanouts[l]`` neighbours each.

    Matches the paper's workflow: the fan-out list is ordered from the
    seed layer outward (``[25, 10]`` samples 25 neighbours of each seed,
    then 10 of each of those).
    """
    rng = ensure_rng(seed)
    seeds = np.asarray(seeds, dtype=np.int64)
    if seeds.ndim != 1:
        raise ValueError("seeds must be 1-D")
    layers: List[SampledLayer] = []
    frontier = sorted_unique(seeds)
    all_ids = [frontier]
    for fanout in fanouts:
        layer = sample_neighbors(graph, frontier, fanout, rng)
        layers.append(layer)
        frontier = sorted_unique(layer.dst)
        all_ids.append(frontier)
    unique_vertices = sorted_unique(np.concatenate(all_ids))
    return MiniBatchSample(
        seeds=seeds,
        layers=tuple(layers),
        unique_vertices=unique_vertices,
    )
