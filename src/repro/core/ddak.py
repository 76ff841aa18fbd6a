"""Data-distribution-aware knapsack (DDAK) placement — paper Section 3.3.

DDAK maps vertex embeddings onto storage *bins* (each GPU's HBM cache,
each socket's DRAM cache, each SSD) so that the realised access traffic
matches the per-bin traffic targets the max-flow model derived, while
respecting capacities and the GPU > CPU > SSD hierarchy.

Vertices are processed hottest-first in *pools* of ``n`` (paper default
100).  The paper's storage hierarchy GPU > CPU > SSD is enforced
tier-by-tier ("once a vertex embedding is placed into a bin according
to this hierarchy"): a pool goes to the highest tier with room.  Within
the tier, the pool goes to the bin minimising the filling priority

    priority(bin) = (bin_access / bin_traffic) * (bin_used / bin_capacity)

evaluated *prospectively* (as if the pool were already in the bin) —
the bin furthest below its traffic target and fill level wins.  SSDs
with more usable path bandwidth (per max flow) therefore absorb hotter
data than throttled ones, which is exactly how DDAK beats hash
placement on skewed graphs.

Ties break by traffic descending then bin index, making the algorithm
fully deterministic.

The greedy runs as a scalar loop over Python floats: a machine has
about ten bins, so per-pool NumPy calls cost more in overhead than the
arithmetic they vectorise.  Priorities are computed in the same
operation order as the array formulation (kept as the reference in the
tests), and every pool's hotness comes from one row-wise reduction that
sums each pool exactly as ``hotness[pool].sum()`` would, so placements
are bit-identical to it.

Note the interaction between pooling and capacities: a pool is placed
whole, so a tier whose bins hold fewer than ``n`` vertices is skipped
entirely (the vertex-granular tail fill only engages once *no* tier
fits a whole pool).  With the paper's n=100 and real cache sizes
(thousands to millions of slots) this never triggers; pick
``pool_size`` below the smallest cache-bin capacity when working with
miniature configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.topology import NodeKind, Topology
from repro.utils.validation import check_nonnegative, check_positive

#: Tier ranks implementing the paper's GPU > CPU > SSD hierarchy.
TIER_GPU, TIER_CPU, TIER_SSD = 0, 1, 2

_TIER_OF_KIND = {
    NodeKind.GPU_MEM: TIER_GPU,
    NodeKind.CPU_MEM: TIER_CPU,
    NodeKind.SSD: TIER_SSD,
}


@dataclass
class Bin:
    """One storage bin: a topology storage node with capacity + target.

    ``traffic`` is the expected service rate (bytes/s) from the max-flow
    model ("Bin_traffic"); ``capacity_bytes`` the embedding budget
    ("Bin_Capacity").
    """

    name: str
    tier: int
    capacity_bytes: float
    traffic: float

    def __post_init__(self) -> None:
        if self.tier not in (TIER_GPU, TIER_CPU, TIER_SSD):
            raise ValueError(f"invalid tier {self.tier}")
        check_nonnegative("capacity_bytes", self.capacity_bytes)
        check_nonnegative("traffic", self.traffic)


@dataclass(frozen=True)
class DataPlacement:
    """A complete vertex-to-bin assignment."""

    bins: List[Bin]
    #: ``int32[num_vertices]`` index into ``bins`` (-1 = unplaced only
    #: when construction failed; never returned by the placers).
    bin_of: np.ndarray
    method: str = ""

    def bin_index(self, name: str) -> int:
        """Index of the bin named ``name`` (raises ``KeyError``)."""
        for i, b in enumerate(self.bins):
            if b.name == name:
                return i
        raise KeyError(name)

    def vertices_in(self, name: str) -> np.ndarray:
        """Vertex ids placed in the named bin."""
        return np.flatnonzero(self.bin_of == self.bin_index(name))

    def bytes_in(self, name: str, feature_bytes: int) -> float:
        """Embedding bytes resident in the named bin."""
        return float(self.vertices_in(name).size * feature_bytes)

    def occupancy(self, feature_bytes: int) -> Dict[str, float]:
        """Fill fraction per bin (0 for unbounded/empty capacities)."""
        counts = np.bincount(self.bin_of, minlength=len(self.bins))
        out = {}
        for i, b in enumerate(self.bins):
            used = counts[i] * feature_bytes
            out[b.name] = used / b.capacity_bytes if b.capacity_bytes else 0.0
        return out

    def validate(self, feature_bytes: int) -> None:
        """Assert every vertex placed and no bin over capacity."""
        if np.any(self.bin_of < 0) or np.any(self.bin_of >= len(self.bins)):
            raise ValueError("placement contains unplaced vertices")
        counts = np.bincount(self.bin_of, minlength=len(self.bins))
        for i, b in enumerate(self.bins):
            used = counts[i] * feature_bytes
            if used > b.capacity_bytes * (1 + 1e-9):
                raise ValueError(
                    f"bin {b.name} over capacity: {used} > {b.capacity_bytes}"
                )


#: Name of the logical bin representing a cache replicated in every
#: GPU's HBM — hits are local on all GPUs (the default cache policy;
#: PCIe P2P cache sharing is not worth it without NVLink).
GPU_REPLICATED = "gpu:all"


def make_bins(
    topo: Topology,
    gpu_cache_bytes: float,
    cpu_cache_bytes: float,
    ssd_capacity_bytes: float,
    traffic: Optional[Mapping[str, float]] = None,
    gpu_traffic: float = 1.2e12,
    gpu_cache_policy: str = "replicated",
) -> List[Bin]:
    """Build the bin list for a topology.

    ``gpu_cache_bytes`` applies per GPU, ``cpu_cache_bytes`` per DRAM
    bank, ``ssd_capacity_bytes`` per drive (all at the dataset's scale).
    ``traffic`` supplies max-flow targets by node name; GPU caches
    default to HBM bandwidth (local hits dominate their service rate)
    and anything else missing gets a tiny epsilon so it fills last.

    ``gpu_cache_policy``:

    * ``"replicated"`` (default) — every GPU holds the same hot set; one
      logical :data:`GPU_REPLICATED` bin with a single GPU's capacity,
      local to all GPUs;
    * ``"partitioned"`` — one bin per GPU (distinct content, peer reads
      cross the fabric); the ablation/NVLink-pairing variant.
    """
    check_nonnegative("gpu_cache_bytes", gpu_cache_bytes)
    check_nonnegative("cpu_cache_bytes", cpu_cache_bytes)
    check_nonnegative("ssd_capacity_bytes", ssd_capacity_bytes)
    if gpu_cache_policy not in ("replicated", "partitioned"):
        raise ValueError(f"unknown gpu_cache_policy {gpu_cache_policy!r}")
    traffic = dict(traffic or {})
    bins: List[Bin] = []
    if gpu_cache_policy == "replicated" and topo.gpus() and gpu_cache_bytes > 0:
        bins.append(
            Bin(
                name=GPU_REPLICATED,
                tier=TIER_GPU,
                capacity_bytes=gpu_cache_bytes,
                traffic=traffic.get(GPU_REPLICATED, gpu_traffic),
            )
        )
    for node in sorted(topo.storage_nodes, key=lambda n: n.name):
        tier = _TIER_OF_KIND[node.kind]
        if tier == TIER_GPU:
            if gpu_cache_policy == "replicated":
                continue
            cap, default_traffic = gpu_cache_bytes, gpu_traffic
        elif tier == TIER_CPU:
            cap, default_traffic = cpu_cache_bytes, 1e6
        else:
            cap, default_traffic = ssd_capacity_bytes, 1e6
        bins.append(
            Bin(
                name=node.name,
                tier=tier,
                capacity_bytes=cap,
                traffic=traffic.get(node.name, default_traffic),
            )
        )
    if not bins:
        raise ValueError("topology has no storage nodes")
    return bins


def ddak_place(
    bins: Sequence[Bin],
    hotness: np.ndarray,
    feature_bytes: int,
    pool_size: int = 100,
) -> DataPlacement:
    """The DDAK allocator (paper Algorithm, Section 3.3).

    ``hotness`` is per-vertex expected access counts; ``pool_size`` is
    the pooling factor n (paper fixes 100 as the balanced default).
    Raises ``ValueError`` if total bin capacity cannot hold the dataset.
    """
    check_positive("feature_bytes", feature_bytes)
    if pool_size < 1:
        raise ValueError("pool_size must be >= 1")
    hotness = np.asarray(hotness, dtype=np.float64)
    num_vertices = hotness.size
    total_needed = num_vertices * feature_bytes
    total_cap = sum(b.capacity_bytes for b in bins)
    if total_cap < total_needed:
        raise ValueError(
            f"bins hold {total_cap:.3g} B but dataset needs {total_needed:.3g} B"
        )

    order = np.argsort(-hotness, kind="stable")
    ordered = hotness[order]
    # every pool's hotness in one reduction: full pools are the rows of
    # a (pools, n) view, each summed exactly as ``hotness[pool].sum()``
    full = num_vertices - num_vertices % pool_size
    pool_hot = ordered[:full].reshape(-1, pool_size).sum(axis=1).tolist()
    if full < num_vertices:
        pool_hot.append(float(ordered[full:].sum()))

    n_bins = len(bins)
    access = [0.0] * n_bins
    used = [0.0] * n_bins
    cap = [float(b.capacity_bytes) for b in bins]
    denom = [max(c, 1e-12) for c in cap]
    traffic = np.array([max(b.traffic, 1e-12) for b in bins])
    # deterministic tie-break within a tier: traffic desc, then index
    tie_rank = np.lexsort((np.arange(n_bins), -traffic))
    tie_order = np.empty(n_bins, dtype=np.int64)
    tie_order[tie_rank] = np.arange(n_bins)
    tie_order = tie_order.tolist()
    traffic = traffic.tolist()
    tier_bins = [
        [i for i, b in enumerate(bins) if b.tier == level]
        for level in sorted({b.tier for b in bins})
    ]

    def pick(add_hot: float, add_bytes: float) -> int:
        """Prospective-priority argmin in the highest tier with room."""
        for members in tier_bins:
            best, best_key = -1, None
            for i in members:
                if used[i] + add_bytes <= cap[i]:
                    key = (
                        (access[i] + add_hot)
                        / traffic[i]
                        * (used[i] + add_bytes)
                        / denom[i],
                        tie_order[i],
                    )
                    if best_key is None or key < best_key:
                        best, best_key = i, key
            if best >= 0:
                access[best] += add_hot
                used[best] += add_bytes
                return best
        return -1

    # the placement as runs over ``order``: run k puts counts[k]
    # consecutive vertices into bin choice[k]
    choice: List[int] = []
    counts: List[int] = []
    vertex_bytes = float(feature_bytes)
    for p, hot in enumerate(pool_hot):
        start = p * pool_size
        size = min(pool_size, num_vertices - start)
        best = pick(hot, size * vertex_bytes)
        if best >= 0:
            choice.append(best)
            counts.append(size)
            continue
        # no tier fits the whole pool: vertex-granular tail fill
        for h in ordered[start : start + size].tolist():
            vb = pick(h, vertex_bytes)
            if vb < 0:
                raise ValueError("all bins full during DDAK placement")
            choice.append(vb)
            counts.append(1)
    bin_of = np.empty(num_vertices, dtype=np.int32)
    bin_of[order] = np.repeat(
        np.array(choice, dtype=np.int32), np.array(counts, dtype=np.int64)
    )
    placement = DataPlacement(list(bins), bin_of, method=f"ddak(n={pool_size})")
    placement.validate(feature_bytes)
    return placement


def hash_place(
    bins: Sequence[Bin],
    hotness: np.ndarray,
    feature_bytes: int,
    cache_hot: bool = True,
) -> DataPlacement:
    """The hash baseline the paper compares DDAK against (Section 4.5).

    GPU/CPU caches are filled with the hottest vertices (split evenly
    across same-tier bins — what M-GIDS/M-Hyperion do), and everything
    else is hashed uniformly across SSDs regardless of each drive's
    usable path bandwidth.  ``cache_hot=False`` hashes *everything* (no
    cache tiers), for ablations.
    """
    check_positive("feature_bytes", feature_bytes)
    hotness = np.asarray(hotness, dtype=np.float64)
    num_vertices = hotness.size
    bin_of = np.full(num_vertices, -1, dtype=np.int32)
    order = np.argsort(-hotness, kind="stable")

    ssd_ids = [i for i, b in enumerate(bins) if b.tier == TIER_SSD]
    if not ssd_ids:
        raise ValueError("hash placement needs at least one SSD bin")
    cursor = 0
    if cache_hot:
        for tier in (TIER_GPU, TIER_CPU):
            tier_ids = [i for i, b in enumerate(bins) if b.tier == tier]
            if not tier_ids:
                continue
            slots = sum(
                int(bins[i].capacity_bytes // feature_bytes) for i in tier_ids
            )
            take = min(slots, num_vertices - cursor)
            if take <= 0:
                continue
            chosen = order[cursor : cursor + take]
            # round-robin across the tier's bins, respecting capacities
            per_bin = [int(bins[i].capacity_bytes // feature_bytes) for i in tier_ids]
            idx = 0
            offsets = np.zeros(len(tier_ids), dtype=np.int64)
            assign = np.empty(take, dtype=np.int32)
            j = 0
            for v in range(take):
                # advance to a bin with room
                for _ in range(len(tier_ids)):
                    if offsets[j] < per_bin[j]:
                        break
                    j = (j + 1) % len(tier_ids)
                assign[v] = tier_ids[j]
                offsets[j] += 1
                j = (j + 1) % len(tier_ids)
            bin_of[chosen] = assign
            cursor += take
    rest = order[cursor:]
    bin_of[rest] = np.array(ssd_ids, dtype=np.int32)[rest % len(ssd_ids)]
    placement = DataPlacement(list(bins), bin_of, method="hash")
    placement.validate(feature_bytes)
    return placement
