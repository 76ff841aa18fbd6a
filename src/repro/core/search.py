"""repro.core.search — the staged placement-search engine.

Moment's automatic module scores every feasible hardware placement and
keeps the best.  This module extracts that search into a small, stable,
pluggable pipeline so callers (the single-machine optimizer, the
multi-node driver, baselines and experiments) all speak the same
:class:`SearchRequest`/:class:`SearchResult` types:

1. **Direct canonical enumeration** — a :class:`CandidateSource` yields
   ``(placement, canonical_key)`` pairs.  :class:`EnumeratedSource`
   streams :func:`repro.core.symmetry.iter_canonical_placements`, which
   produces exactly one representative per symmetry orbit *directly*
   (no rejected duplicates are ever constructed); the raw pre-dedupe
   candidate count is computed analytically by
   :func:`repro.core.placement.count_placements`.
2. **Coarse scoring (pass 1)** — :class:`FlexibleMaxFlowScorer`, the
   paper's time-search max flow on *flexible* class demands, solved by
   the vectorized cut-parametric kernel (:mod:`repro.core.flowmodel`):
   candidates are scored in batches whose capacity matrices are stacked
   into NumPy arrays, and each batch's first solution warm-starts the
   rest (``search.warm_starts``).  Its throughput is an upper bound on
   the exact score (the class demand is a relaxation of any concrete
   bin split), which makes it both the top-k funnel key and the pruning
   bound.
3. **Exact scoring (pass 2)** — :class:`MulticommodityScorer`, the
   multicommodity concurrent-flow LP on the concretised demand.  Only
   the ``lp_top_k`` best pass-1 candidates reach this stage, and with
   ``prune_bounds`` on, a candidate whose pass-1 upper bound cannot
   beat the current best-``top_k`` floor by more than
   :data:`PRUNE_REL_SLACK` skips the LP — the winner's throughput is
   preserved to within :data:`PRUNE_EQUIV_TOL` (LP-solver noise).

Scoring runs on a :class:`ParallelExecutor`: ``workers=1`` executes
inline (bit-identical to the pre-engine serial code path), ``workers>1``
fans chunks out to a ``concurrent.futures`` process pool.  Results are
reassembled by enumeration index and the final ranking breaks
throughput ties on funnel order (pass-1 score descending, enumeration
index ascending — the pre-engine stable sort), so serial and parallel
runs pick the same winner.

Topology construction is cached per ``Placement.as_tuple()`` (each
candidate's topology is built once and reused across stages).  Every
stage reports through :mod:`repro.obs`: ``search.candidates``,
``search.unique``, ``search.pass1_scored``, ``search.lp_scored``,
``search.pruned_by_bound`` and ``search.topo_cache.{hits,misses}``.
"""

from __future__ import annotations

import heapq
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

import numpy as np

from repro import obs
from repro.core.flowmodel import (
    CPU_CLASS,
    SSD_CLASS,
    FlowPrediction,
    TrafficDemand,
    min_completion_time,
    score_batch,
)
from repro.core.mcmf import McfPrediction, multicommodity_min_time
from repro.core.placement import Chassis, Placement, count_placements
from repro.core.symmetry import iter_canonical_placements
from repro.core.topology import NodeKind, Topology, TopologyMask

if TYPE_CHECKING:  # pragma: no cover - type hints only, avoids import cycle
    from repro.hardware.machines import MachineSpec


#: Relative slack for bound pruning.  Pass-1 max flow and the pass-2 LP
#: can land within float/solver noise of each other when both clamp on
#: the same analytic bottleneck (e.g. the SSD aggregate), so an exact
#: ``bound < floor`` test never fires on tied searches.  Pruning instead
#: drops candidates whose bound cannot beat the floor by more than one
#: part in 10⁹, which deliberately includes exact ties.
PRUNE_REL_SLACK = 1e-9

#: How closely bound pruning preserves the unpruned winner's
#: throughput.  The pass-1 max-flow relaxation is an upper bound on the
#: exact multicommodity score only *up to LP-solver tolerance*: a
#: pruned tie's exact score can exceed its bound (violations up to a
#: few parts in 10⁵ observed), so the equivalence contract is solver
#: noise, not float epsilon.
PRUNE_EQUIV_TOL = 1e-3


# ----------------------------------------------------------------------
# Process-wide knob defaults (env-overridable, CLI-settable)
# ----------------------------------------------------------------------
_DEFAULT_WORKERS: Optional[int] = None
_DEFAULT_PRUNE: Optional[bool] = None
_DEFAULT_BATCH: Optional[int] = None
_DEFAULT_WARM: Optional[bool] = None


def default_workers() -> int:
    """Default scoring parallelism: ``REPRO_SEARCH_WORKERS`` or 1."""
    if _DEFAULT_WORKERS is not None:
        return _DEFAULT_WORKERS
    try:
        return max(1, int(os.environ.get("REPRO_SEARCH_WORKERS", "1")))
    except ValueError:
        return 1


def set_default_workers(workers: Optional[int]) -> None:
    """Override the process-wide worker default (None = env/1)."""
    global _DEFAULT_WORKERS
    _DEFAULT_WORKERS = None if workers is None else max(1, int(workers))


def default_prune_bounds() -> bool:
    """Default bound-pruning switch: ``REPRO_SEARCH_PRUNE`` == 1.

    Off by default: pruning preserves the winner's *throughput* to
    within :data:`PRUNE_REL_SLACK` but may pick a different member of a
    solver-noise tie, while the default path must reproduce the serial
    reference bit-for-bit.
    """
    if _DEFAULT_PRUNE is not None:
        return _DEFAULT_PRUNE
    return os.environ.get("REPRO_SEARCH_PRUNE", "0") not in ("0", "")


def set_default_prune_bounds(prune: Optional[bool]) -> None:
    """Override the process-wide pruning default (None = env/off)."""
    global _DEFAULT_PRUNE
    _DEFAULT_PRUNE = None if prune is None else bool(prune)


def default_batch_size() -> int:
    """Default pass-1 scoring batch size: ``REPRO_SEARCH_BATCH`` or 32.

    Serial and parallel runs use the *same* batch size, so warm-start
    chaining (which operates within a batch) partitions the candidate
    stream identically for every worker count — a determinism
    requirement, not just a tuning default.
    """
    if _DEFAULT_BATCH is not None:
        return _DEFAULT_BATCH
    try:
        return max(1, int(os.environ.get("REPRO_SEARCH_BATCH", "32")))
    except ValueError:
        return 32


def set_default_batch_size(batch: Optional[int]) -> None:
    """Override the process-wide batch-size default (None = env/32)."""
    global _DEFAULT_BATCH
    _DEFAULT_BATCH = None if batch is None else max(1, int(batch))


def default_warm_starts() -> bool:
    """Default warm-start switch: ``REPRO_SEARCH_WARM`` != 0 (on).

    On by default: a warm cut only seeds the cut-parametric time search
    with a valid lower bound, so warm and cold solves converge to the
    *same* exact breakpoint — the knob exists for diagnosis (forcing
    every candidate down the cold path), not because results differ.
    """
    if _DEFAULT_WARM is not None:
        return _DEFAULT_WARM
    return os.environ.get("REPRO_SEARCH_WARM", "1") not in ("0", "")


def set_default_warm_starts(warm: Optional[bool]) -> None:
    """Override the process-wide warm-start default (None = env/on)."""
    global _DEFAULT_WARM
    _DEFAULT_WARM = None if warm is None else bool(warm)


# ----------------------------------------------------------------------
# Demand construction (shared by both scoring stages)
# ----------------------------------------------------------------------
def scoring_demand(
    topo: Topology,
    fractions: Tuple[float, float, float],
    bytes_per_gpu: float = 1e9,
    gpu_cache_policy: str = "replicated",
) -> TrafficDemand:
    """Unit traffic demand used to score a candidate topology.

    Every GPU demands ``bytes_per_gpu`` split across tiers per the
    fractions.  Replicated GPU caches serve their share locally (free);
    the partitioned ablation turns the non-own share into peer reads.
    CPU and SSD shares use the flexible class demands so the max-flow
    solver distributes them optimally across banks/drives.
    """
    f_gpu, f_cpu, f_ssd = fractions
    gpus = topo.gpus()
    n = len(gpus)
    demand = TrafficDemand()
    for gpu in gpus:
        if gpu_cache_policy == "partitioned" and f_gpu > 0 and n > 1:
            peers = [g for g in gpus if g != gpu]
            peer_share = bytes_per_gpu * f_gpu * (len(peers) / n) / len(peers)
            for peer in peers:
                demand.add(f"{peer}:mem", gpu, peer_share)
        if f_cpu > 0:
            demand.add(CPU_CLASS, gpu, bytes_per_gpu * f_cpu)
        if f_ssd > 0:
            demand.add(SSD_CLASS, gpu, bytes_per_gpu * f_ssd)
    return demand


def concrete_demand(
    topo: Topology,
    fractions: Tuple[float, float, float],
    storage_rate: Dict[str, float],
    bytes_per_gpu: float = 1e9,
    gpu_cache_policy: str = "replicated",
) -> TrafficDemand:
    """Concretise a scoring demand: each tier's share is split across
    that tier's bins by the pass-1 max-flow weights, and every bin's
    share fans out evenly over all GPUs (shared dataset)."""
    f_gpu, f_cpu, f_ssd = fractions
    gpus = topo.gpus()
    n = len(gpus)
    demand = TrafficDemand()

    def spread(names, tier_fraction):
        if not names or tier_fraction <= 0:
            return
        weights = np.array([max(storage_rate.get(b, 0.0), 0.0) for b in names])
        if weights.sum() <= 0:
            weights = np.ones(len(names))
        weights = weights / weights.sum()
        for name, w in zip(names, weights):
            share = bytes_per_gpu * tier_fraction * w
            for gpu in gpus:
                demand.add(name, gpu, share)

    spread(topo.ssds(), f_ssd)
    spread(
        sorted(m.name for m in topo.nodes_of_kind(NodeKind.CPU_MEM)), f_cpu
    )
    # partitioned-cache ablation: peer reads, even caches, even origins
    if gpu_cache_policy == "partitioned":
        for gpu in gpus:
            peers = [g for g in gpus if g != gpu]
            if peers and f_gpu > 0:
                peer_share = (
                    bytes_per_gpu * f_gpu * (len(peers) / n) / len(peers)
                )
                for peer in peers:
                    demand.add(f"{peer}:mem", gpu, peer_share)
    return demand


# ----------------------------------------------------------------------
# Result rows
# ----------------------------------------------------------------------
@dataclass
class ScoredPlacement:
    """One scored hardware-placement candidate."""

    placement: Placement
    #: Pass-2 multicommodity throughput (bytes/s) — the ranking score.
    throughput: float
    #: Pass-1 flexible max-flow prediction (per-bin traffic targets).
    prediction: FlowPrediction
    #: Pass-2 multicommodity LP prediction (utilisation, bottlenecks).
    mcf: Optional[McfPrediction] = None


# ----------------------------------------------------------------------
# Candidate sources
# ----------------------------------------------------------------------
class CandidateSource(Protocol):
    """Streams ``(placement, canonical_key)`` pairs into the engine.

    ``num_seen`` reports the raw (pre-dedupe) candidate count.  It is
    valid at any time — before, during, or after :meth:`stream` — and
    does not require the stream to run: sources that never construct
    the raw enumeration compute it analytically.
    """

    @property
    def num_seen(self) -> int: ...  # noqa: E704 - protocol stub

    def stream(self) -> Iterator[Tuple[Placement, Tuple]]: ...  # noqa: E704


class EnumeratedSource:
    """Direct canonical enumeration of the slot-feasible space.

    Streams :func:`repro.core.symmetry.iter_canonical_placements`: one
    representative per symmetry orbit, produced directly (the rejected
    orbit members are never constructed, unlike the historical
    enumerate-then-filter pipeline this replaces, kept as the reference
    ``CanonicalFilter`` in ``tests/oracles.py``).  The yielded key is
    the representative's own count tuple — under the direct scheme the
    representative *is* the orbit's enumeration-order minimum, so its
    tuple is already a unique orbit id.

    ``num_seen`` is the raw pre-dedupe count, computed analytically by
    :func:`repro.core.placement.count_placements` (and cached); the
    historical semantics — "0 until the stream is exhausted, then the
    number of raw candidates iterated" — are gone.  ``num_direct``
    counts the canonical placements actually yielded so far.
    """

    def __init__(self, chassis: Chassis, num_gpus: int, num_ssds: int) -> None:
        self.chassis = chassis
        self.num_gpus = num_gpus
        self.num_ssds = num_ssds
        self._raw_count: Optional[int] = None
        self.num_direct = 0

    @property
    def num_seen(self) -> int:
        if self._raw_count is None:
            self._raw_count = count_placements(
                self.chassis, self.num_gpus, self.num_ssds
            )
        return self._raw_count

    def stream(self) -> Iterator[Tuple[Placement, Tuple]]:
        self.num_direct = 0
        for placement in iter_canonical_placements(
            self.chassis, self.num_gpus, self.num_ssds
        ):
            self.num_direct += 1
            yield placement, placement.as_tuple()


class ExplicitSource:
    """A fixed candidate list (e.g. data-placement-only runs, §4.5).

    Matches the historical restricted-search semantics: the list is
    taken as-is, without symmetry dedupe, and keys are the placements'
    own count tuples.
    """

    def __init__(self, placements: Sequence[Placement]) -> None:
        self.placements = list(placements)

    @property
    def num_seen(self) -> int:
        return len(self.placements)

    def stream(self) -> Iterator[Tuple[Placement, Tuple]]:
        for placement in self.placements:
            yield placement, placement.as_tuple()


def sample_placements(
    chassis: Chassis,
    num_gpus: int,
    num_ssds: int,
    cap: int = 16,
) -> List[Placement]:
    """A deterministic, symmetry-deduped sample of the search space.

    Arbitrary compiled fabrics (generated heterogeneous chassis) can
    enumerate thousands of canonical placements; sweeps that only need
    a representative candidate set stride-sample ``cap`` of them so a
    restricted search stays bounded on any fabric.  ``cap <= 0``, or a
    space no larger than ``cap``, returns every canonical placement.
    """
    canon = list(iter_canonical_placements(chassis, num_gpus, num_ssds))
    if cap <= 0 or len(canon) <= cap:
        return canon
    stride = len(canon) / cap
    return [canon[int(i * stride)] for i in range(cap)]


# ----------------------------------------------------------------------
# Scorers (pipeline stages)
# ----------------------------------------------------------------------
class Scorer(Protocol):
    """One scoring stage: topology + placement (+ prior stage result)
    to a prediction object exposing ``.throughput``."""

    name: str

    def score(
        self, topo: Topology, placement: Placement, prior: object = None
    ) -> object: ...  # noqa: E704 - protocol stub


@dataclass(frozen=True)
class FlexibleMaxFlowScorer:
    """Pass 1: time-search max flow on flexible class demands.

    The solver decides how much traffic each drive/bank should ideally
    serve — these weights are what DDAK will realise via data placement,
    and the resulting throughput is an optimistic *upper bound* on the
    exact pass-2 score.

    Solved by the vectorized cut-parametric kernel
    (:mod:`repro.core.flowmodel`), which returns the *exact* breakpoint
    time — no bisection, no tolerance.
    """

    fractions: Tuple[float, float, float]
    gpu_cache_policy: str = "replicated"

    name = "pass1.maxflow"

    def _demand(self, topo: Topology) -> TrafficDemand:
        return scoring_demand(
            topo, self.fractions, gpu_cache_policy=self.gpu_cache_policy
        )

    def score(
        self, topo: Topology, placement: Placement, prior: object = None
    ) -> FlowPrediction:
        """Score one candidate.  ``prior``, when given, is a warm-start
        cut partition (node labels) from a related solve."""
        warm = prior if prior else None
        return min_completion_time(
            topo, self._demand(topo), warm_partition=warm
        )

    def score_batch(
        self,
        topos: Sequence[Topology],
        warm_partition: Optional[Tuple[str, ...]] = None,
        chain: bool = True,
    ) -> Tuple[List[Optional[FlowPrediction]], int]:
        """Score a batch of candidate topologies in NumPy lockstep.

        Returns ``(predictions, warm_starts)``; see
        :func:`repro.core.flowmodel.score_batch`.
        """
        jobs = [(topo, self._demand(topo)) for topo in topos]
        return score_batch(
            jobs, warm_partition=warm_partition, chain=chain
        )


@dataclass(frozen=True)
class MulticommodityScorer:
    """Pass 2: exact multicommodity LP on the concretised demand.

    Each bin's pass-1 share is fanned out *evenly across GPUs* — the
    dataset is shared, so every GPU reads from every bin; a placement
    only scores well if that all-to-all pattern fits its fabric.
    """

    fractions: Tuple[float, float, float]
    gpu_cache_policy: str = "replicated"

    name = "pass2.mcf"

    def score(
        self, topo: Topology, placement: Placement, prior: FlowPrediction = None
    ) -> McfPrediction:
        demand = concrete_demand(
            topo,
            self.fractions,
            prior.storage_rate if prior is not None else {},
            gpu_cache_policy=self.gpu_cache_policy,
        )
        return multicommodity_min_time(topo, demand)


# ----------------------------------------------------------------------
# Scoring runtime: topology cache + stage dispatch (shared by the
# inline path and every pool worker)
# ----------------------------------------------------------------------
class _ScoreRuntime:
    """Builds (and caches) topologies and applies scorers to chunks.

    A chunk handed to a batch-capable scorer (one exposing
    ``score_batch``) is solved as one NumPy-lockstep batch: the chunk's
    first candidate is solved alone (seeded by ``warm_cut`` when warm
    starts are enabled) and its binding cut warm-starts the rest.
    Chaining never crosses a chunk boundary, so identical chunking
    (guaranteed by the shared :func:`default_batch_size`) makes serial
    and parallel runs solve identical batches.
    """

    def __init__(
        self,
        machine: "MachineSpec",
        nvlink_pairs: Optional[Tuple[Tuple[int, int], ...]],
        scorers: Dict[str, Scorer],
        mask: Optional[TopologyMask] = None,
        warm: bool = True,
        warm_cut: Optional[Tuple[str, ...]] = None,
    ) -> None:
        self.machine = machine
        self.nvlink_pairs = nvlink_pairs
        self.scorers = scorers
        self.mask = mask
        self.warm = warm
        self.warm_cut = warm_cut if warm else None
        self._topologies: Dict[Tuple, Topology] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.warm_starts = 0
        self.batch_sizes: List[int] = []

    def topology(self, placement: Placement) -> Topology:
        key = placement.as_tuple()
        topo = self._topologies.get(key)
        if topo is not None:
            self.cache_hits += 1
            return topo
        self.cache_misses += 1
        # candidates come from the validated enumeration, so the chassis
        # and topology invariant sweeps are skipped in the hot path
        topo = self.machine.build(
            placement, nvlink_pairs=self.nvlink_pairs, validate=False
        )
        if self.mask:
            # degraded-fabric search (replanning): every candidate is
            # scored on the surviving topology
            topo = self.mask.apply(topo)
        self._topologies[key] = topo
        return topo

    def run_chunk(
        self, stage: str, items: Sequence[Tuple[int, Placement, object]]
    ) -> List[Tuple[int, object]]:
        scorer = self.scorers[stage]
        batcher = getattr(scorer, "score_batch", None)
        if batcher is not None:
            topos = [self.topology(placement) for _, placement, _ in items]
            predictions, warm_starts = batcher(
                topos, warm_partition=self.warm_cut, chain=self.warm
            )
            self.warm_starts += warm_starts
            self.batch_sizes.append(len(items))
            return [
                (idx, prediction)
                for (idx, _, _), prediction in zip(items, predictions)
            ]
        return [
            (idx, scorer.score(self.topology(placement), placement, prior))
            for idx, placement, prior in items
        ]

    def take_stats(self) -> Tuple[int, int, int, Tuple[int, ...]]:
        """Drain (cache_hits, cache_misses, warm_starts, batch_sizes)."""
        stats = (
            self.cache_hits,
            self.cache_misses,
            self.warm_starts,
            tuple(self.batch_sizes),
        )
        self.cache_hits = self.cache_misses = self.warm_starts = 0
        self.batch_sizes = []
        return stats


_WORKER_RUNTIME: Optional[_ScoreRuntime] = None


def _pool_init(
    machine, nvlink_pairs, scorers, mask=None, warm=True, warm_cut=None
) -> None:
    global _WORKER_RUNTIME
    _WORKER_RUNTIME = _ScoreRuntime(
        machine, nvlink_pairs, scorers, mask, warm=warm, warm_cut=warm_cut
    )


def _pool_chunk(stage, items):
    results = _WORKER_RUNTIME.run_chunk(stage, items)
    return results, _WORKER_RUNTIME.take_stats()


class ParallelExecutor:
    """Chunked stage execution, inline or over a process pool.

    ``workers=1`` runs every chunk in-process through the exact same
    :class:`_ScoreRuntime` code path the pool workers use, so the serial
    engine is bit-identical to the parallel one; results are always
    reassembled in submission (enumeration-index) order.
    """

    def __init__(
        self,
        machine: "MachineSpec",
        nvlink_pairs: Optional[Tuple[Tuple[int, int], ...]],
        scorers: Dict[str, Scorer],
        workers: int = 1,
        mask: Optional[TopologyMask] = None,
        warm: bool = True,
        warm_cut: Optional[Tuple[str, ...]] = None,
    ) -> None:
        self.workers = max(1, int(workers))
        self._init_args = (
            machine, nvlink_pairs, dict(scorers), mask, warm, warm_cut,
        )
        self._local = _ScoreRuntime(
            machine, nvlink_pairs, dict(scorers), mask,
            warm=warm, warm_cut=warm_cut,
        )
        self._pool: Optional[ProcessPoolExecutor] = None
        self.cache_hits = 0
        self.cache_misses = 0
        self.warm_starts = 0
        self.batch_sizes: List[int] = []

    # -- lifecycle -------------------------------------------------------
    def __enter__(self) -> "ParallelExecutor":
        if self.workers > 1:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_pool_init,
                initargs=self._init_args,
            )
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # -- execution -------------------------------------------------------
    def _absorb(
        self,
        hits: int,
        misses: int,
        warm_starts: int = 0,
        batch_sizes: Tuple[int, ...] = (),
    ) -> None:
        self.cache_hits += hits
        self.cache_misses += misses
        self.warm_starts += warm_starts
        self.batch_sizes.extend(batch_sizes)

    def run_stage(
        self,
        stage: str,
        items: Sequence[Tuple[int, Placement, object]],
        chunk_size: Optional[int] = None,
    ) -> List[Tuple[int, object]]:
        """Score ``items`` with the named stage, in index order."""
        items = list(items)
        if not items:
            return []
        if self._pool is None:
            out = self._local.run_chunk(stage, items)
            self._absorb(*self._local.take_stats())
            return out
        if chunk_size is None:
            chunk_size = max(1, -(-len(items) // (self.workers * 4)))
        chunks = [
            items[i : i + chunk_size]
            for i in range(0, len(items), chunk_size)
        ]
        futures = [
            self._pool.submit(_pool_chunk, stage, chunk) for chunk in chunks
        ]
        results: List[Tuple[int, object]] = []
        for future in futures:
            chunk_results, stats = future.result()
            results.extend(chunk_results)
            self._absorb(*stats)
        results.sort(key=lambda pair: pair[0])
        return results

    def topology(self, placement: Placement) -> Topology:
        """Build (or fetch from the local cache) one topology."""
        topo = self._local.topology(placement)
        self._absorb(*self._local.take_stats())
        return topo


# ----------------------------------------------------------------------
# Request / result types
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SearchRequest:
    """One placement-search problem, fully specified."""

    machine: "MachineSpec"
    num_gpus: int
    num_ssds: int
    #: (GPU, CPU, SSD) traffic fractions the demand is built from.
    fractions: Tuple[float, float, float]
    gpu_cache_policy: str = "replicated"
    nvlink_pairs: Optional[Tuple[Tuple[int, int], ...]] = None
    #: Pass-1 → pass-2 funnel width (pass 1 is optimistic, so generous).
    lp_top_k: int = 48
    #: Candidates kept in the ranked result (also the pruning floor k).
    top_k: int = 10
    #: Scoring processes; None = :func:`default_workers` (env/CLI).
    workers: Optional[int] = None
    #: Skip the LP for candidates whose pass-1 upper bound cannot beat
    #: the current best-``top_k`` floor; None = :func:`default_prune_bounds`.
    prune_bounds: Optional[bool] = None
    #: Restrict the search to these placements (skips enumeration and
    #: symmetry dedupe, e.g. data-placement-only runs à la §4.5).
    candidates: Optional[Tuple[Placement, ...]] = None
    #: Score every candidate on the degraded (surviving) topology —
    #: used by fault replanning.  ``None`` searches the healthy fabric.
    mask: Optional[TopologyMask] = None
    #: Warm-start hint: the binding-cut node labels
    #: (``FlowPrediction.cut_partition``) of a previous, related solve —
    #: e.g. the healthy-fabric prediction when re-searching under a
    #: ``mask``, or the current placement when scoring a single-slot
    #: swap.  Seeds the first candidate of every pass-1 batch; warm and
    #: cold solves reach the same exact answer.
    warm_cut: Optional[Tuple[str, ...]] = None
    #: Enable warm-started pass-1 scoring (batch chaining + ``warm_cut``
    #: seeding); None = :func:`default_warm_starts` (env/on).
    warm_starts: Optional[bool] = None
    #: Pass-1 scoring batch size; None = :func:`default_batch_size`.
    batch_size: Optional[int] = None

    def resolved_workers(self) -> int:
        """The effective worker count for this request."""
        if self.workers is None:
            return default_workers()
        return max(1, int(self.workers))

    def resolved_prune_bounds(self) -> bool:
        """The effective bound-pruning switch for this request."""
        if self.prune_bounds is None:
            return default_prune_bounds()
        return bool(self.prune_bounds)

    def resolved_warm_starts(self) -> bool:
        """The effective warm-start switch for this request."""
        if self.warm_starts is None:
            return default_warm_starts()
        return bool(self.warm_starts)

    def resolved_batch_size(self) -> int:
        """The effective pass-1 batch size for this request."""
        if self.batch_size is None:
            return default_batch_size()
        return max(1, int(self.batch_size))


@dataclass
class SearchResult:
    """Outcome of one placement search, best candidate first."""

    #: The winner (highest pass-2 throughput).
    best: ScoredPlacement
    #: Top-``top_k`` candidates, ranked by throughput (ties keep funnel
    #: order, matching the pre-engine stable sort).
    scored: List[ScoredPlacement] = field(default_factory=list)
    #: Raw enumeration size (before symmetry pruning).
    num_candidates: int = 0
    #: Candidates scored by pass 1 (after symmetry pruning).
    num_unique: int = 0
    #: Candidates that entered the pass-2 funnel.
    num_finalists: int = 0
    #: Finalists the LP actually evaluated.
    num_lp_scored: int = 0
    #: Finalists skipped because their pass-1 bound could not win.
    pruned_by_bound: int = 0
    #: Topology-build cache hits/misses across all stages and workers.
    cache_hits: int = 0
    cache_misses: int = 0
    #: Effective parallelism the search ran with.
    workers: int = 1
    #: Wall-clock duration of the engine run (``search.run`` span).
    seconds: float = 0.0
    #: Pass-1 solves that started from a warm (non-zero) cut root.
    warm_starts: int = 0
    #: Pass-1 scoring batches dispatched (serial and parallel alike).
    num_batches: int = 0
    #: Canonical placements yielded directly by the source (equals
    #: ``num_unique`` for :class:`EnumeratedSource`; 0 for sources
    #: without direct canonical enumeration).
    canonical_direct: int = 0


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class SearchEngine:
    """Streaming enumeration → incremental pruning → staged scoring.

    Pluggable: any :class:`CandidateSource` and any pair of
    :class:`Scorer` stages (a coarse stage whose value upper-bounds the
    exact stage) compose into the same funnel.  Determinism contract:
    for a fixed source and scorers, the winner and the ranked top-k are
    identical for every ``workers`` count; throughput ties break on
    funnel order (pass-1 score descending, enumeration index ascending),
    matching the pre-engine serial path bit-for-bit.  ``prune_bounds``
    preserves the winner's throughput to within :data:`PRUNE_REL_SLACK`
    relative (identical in practice unless scores tie at solver noise).
    """

    def __init__(
        self,
        source: CandidateSource,
        coarse: Scorer,
        exact: Scorer,
        executor: ParallelExecutor,
        lp_top_k: int = 48,
        top_k: int = 10,
        prune_bounds: bool = False,
        batch_size: Optional[int] = None,
    ) -> None:
        self.source = source
        self.coarse = coarse
        self.exact = exact
        self.executor = executor
        self.lp_top_k = max(1, lp_top_k)
        self.top_k = max(1, top_k)
        self.prune_bounds = prune_bounds
        self.batch_size = max(
            1, batch_size if batch_size is not None else default_batch_size()
        )

    # -- stage 1: stream candidates through the coarse scorer ------------
    def _stream_pass1(self):
        """Enumerate, dedupe and coarse-score, overlapped.

        Admitted candidates are chunked into fixed ``batch_size`` scoring
        batches and dispatched to the executor *while enumeration is
        still running*, so the process pool starts scoring before the
        stream is exhausted.  Serial and parallel runs use the same
        batch size (warm-start chaining operates within a batch, so
        identical chunking keeps every worker count solving identical
        batches).  Returns ``entries`` with ``entries[i] = (index,
        placement, pass1_prediction)`` in enumeration order.
        """
        chunk: List[Tuple[int, Placement, object]] = []
        chunk_size = self.batch_size
        placements: List[Placement] = []
        results: List[Tuple[int, object]] = []
        for placement, _key in self.source.stream():
            placements.append(placement)
            chunk.append((len(placements) - 1, placement, None))
            if len(chunk) >= chunk_size:
                results.extend(
                    self.executor.run_stage(
                        "coarse", chunk, chunk_size=chunk_size
                    )
                )
                chunk = []
        if chunk:
            results.extend(
                self.executor.run_stage("coarse", chunk, chunk_size=len(chunk))
            )
        results.sort(key=lambda pair: pair[0])
        return [
            (idx, placements[idx], prediction) for idx, prediction in results
        ]

    # -- stage 2: top-k funnel + bound-pruned exact scoring ---------------
    def _select_finalists(self, entries):
        """The ``lp_top_k`` best pass-1 candidates, best first.

        Selection matches a stable descending sort on pass-1 throughput
        (ties keep enumeration order), maintained incrementally with a
        bounded heap — the funnel never holds more than ``lp_top_k``
        candidates.
        """
        heap: List[Tuple[float, int]] = []  # (throughput, -index) min-heap
        by_index: Dict[int, Tuple[Placement, object]] = {}
        for idx, placement, prediction in entries:
            item = (prediction.throughput, -idx)
            if len(heap) < self.lp_top_k:
                heapq.heappush(heap, item)
                by_index[idx] = (placement, prediction)
            elif item > heap[0]:
                evicted = heapq.heappushpop(heap, item)
                del by_index[-evicted[1]]
                by_index[idx] = (placement, prediction)
        order = sorted(heap, key=lambda item: (-item[0], -item[1]))
        return [
            (-neg_idx, by_index[-neg_idx][0], by_index[-neg_idx][1])
            for _, neg_idx in order
        ]

    def _score_exact(self, finalists):
        """LP-score the finalists, skipping candidates that cannot win.

        Finalists arrive sorted by descending pass-1 bound.  A min-heap
        of the ``top_k`` best exact scores so far gives the floor; a
        candidate whose bound cannot beat the floor by more than
        :data:`PRUNE_REL_SLACK` (ties included) skips the LP.  Exact
        scores can exceed the pass-1 "upper" bound by LP-solver noise,
        so the winner is preserved to :data:`PRUNE_EQUIV_TOL`, not to
        float epsilon.

        Scoring proceeds in fixed waves of ``top_k`` candidates and the
        floor only tightens *between* waves, so prune decisions depend
        solely on wave boundaries — never on the worker count — and any
        ``workers`` setting reproduces the serial result exactly.
        """
        scored: List[Tuple[int, ScoredPlacement]] = []
        floor_heap: List[float] = []
        pruned = 0
        wave_size = max(1, self.top_k)
        position = 0
        while position < len(finalists):
            batch = []
            while position < len(finalists) and len(batch) < wave_size:
                entry = finalists[position]
                position += 1
                if (
                    self.prune_bounds
                    and len(floor_heap) >= self.top_k
                    and entry[4] <= floor_heap[0] * (1.0 + PRUNE_REL_SLACK)
                ):
                    pruned += 1
                    continue
                batch.append(entry)
            if not batch:
                continue
            results = self.executor.run_stage(
                "exact",
                [(pos, placement, p1) for pos, _, placement, p1, _ in batch],
                chunk_size=max(
                    1, -(-len(batch) // max(1, self.executor.workers))
                ),
            )
            prior = {pos: (placement, p1) for pos, _, placement, p1, _ in batch}
            for pos, mcf in results:
                placement, p1 = prior[pos]
                scored.append(
                    (pos, ScoredPlacement(placement, mcf.throughput, p1, mcf))
                )
                if len(floor_heap) < self.top_k:
                    heapq.heappush(floor_heap, mcf.throughput)
                elif mcf.throughput > floor_heap[0]:
                    heapq.heappushpop(floor_heap, mcf.throughput)
        # funnel position is the pre-engine stable order: pass-1 score
        # descending, enumeration index ascending — sorting on it keeps
        # throughput ties ranked exactly as the serial reference path.
        ranked = sorted(scored, key=lambda pair: (-pair[1].throughput, pair[0]))
        return [row for _, row in ranked], pruned

    # -- entry point ------------------------------------------------------
    def run(self) -> SearchResult:
        """Execute the full pipeline and return the ranked result."""
        with obs.span(
            "search.run",
            workers=self.executor.workers,
            lp_top_k=self.lp_top_k,
            prune_bounds=self.prune_bounds,
        ) as root:
            with self.executor:
                with obs.span("search.pass1") as sp:
                    entries = self._stream_pass1()
                    sp.set(
                        candidates=self.source.num_seen, unique=len(entries)
                    )
                if not entries:
                    raise ValueError("candidate source produced no placements")
                # bound = pass-1 throughput; funnel position = stable rank
                finalists = [
                    (pos, idx, placement, p1, p1.throughput)
                    for pos, (idx, placement, p1) in enumerate(
                        self._select_finalists(entries)
                    )
                ]
                with obs.span("search.pass2", finalists=len(finalists)) as sp:
                    ranked, pruned = self._score_exact(finalists)
                    sp.set(pruned=pruned, lp_scored=len(ranked))
            num_lp = len(ranked)
            result = SearchResult(
                best=ranked[0],
                scored=ranked[: self.top_k],
                num_candidates=self.source.num_seen,
                num_unique=len(entries),
                num_finalists=len(finalists),
                num_lp_scored=num_lp,
                pruned_by_bound=pruned,
                cache_hits=self.executor.cache_hits,
                cache_misses=self.executor.cache_misses,
                workers=self.executor.workers,
                warm_starts=self.executor.warm_starts,
                num_batches=len(self.executor.batch_sizes),
                canonical_direct=getattr(self.source, "num_direct", 0),
            )
            root.set(
                unique=result.num_unique,
                pruned=result.pruned_by_bound,
                throughput=result.best.throughput,
            )
        result.seconds = root.duration
        obs.add("search.candidates", result.num_candidates)
        obs.add("search.unique", result.num_unique)
        obs.add("search.canonical_direct", result.canonical_direct)
        obs.add("search.pass1_scored", result.num_unique)
        obs.add("search.lp_scored", result.num_lp_scored)
        obs.add("search.pruned_by_bound", result.pruned_by_bound)
        obs.add("search.warm_starts", result.warm_starts)
        for size in self.executor.batch_sizes:
            obs.observe("search.batch_size", size)
        obs.add("search.topo_cache.hits", result.cache_hits)
        obs.add("search.topo_cache.misses", result.cache_misses)
        return result


def run_search(request: SearchRequest) -> SearchResult:
    """Solve one :class:`SearchRequest` with the default pipeline.

    Raises ``ValueError`` when no placement fits the requested pool.
    """
    machine = request.machine
    if request.candidates is not None:
        source: CandidateSource = ExplicitSource(request.candidates)
    else:
        source = EnumeratedSource(
            machine.chassis, request.num_gpus, request.num_ssds
        )
    coarse = FlexibleMaxFlowScorer(
        fractions=request.fractions,
        gpu_cache_policy=request.gpu_cache_policy,
    )
    exact = MulticommodityScorer(
        fractions=request.fractions,
        gpu_cache_policy=request.gpu_cache_policy,
    )
    executor = ParallelExecutor(
        machine,
        request.nvlink_pairs,
        {"coarse": coarse, "exact": exact},
        workers=request.resolved_workers(),
        mask=request.mask,
        warm=request.resolved_warm_starts(),
        warm_cut=request.warm_cut,
    )
    engine = SearchEngine(
        source,
        coarse,
        exact,
        executor,
        lp_top_k=request.lp_top_k,
        top_k=request.top_k,
        prune_bounds=request.resolved_prune_bounds(),
        batch_size=request.resolved_batch_size(),
    )
    try:
        return engine.run()
    except ValueError as err:
        if "no placements" in str(err):
            raise ValueError(
                f"no feasible placement of {request.num_gpus} GPUs / "
                f"{request.num_ssds} SSDs on {machine.name}"
            ) from None
        raise
