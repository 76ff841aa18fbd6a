"""repro.core.search — the staged placement-search engine.

Moment's automatic module scores every feasible hardware placement and
keeps the best.  This module runs that search as one fixed pipeline so
callers (the single-machine optimizer, the multi-node driver, baselines
and experiments) all speak the same :class:`SearchRequest` /
:class:`SearchResult` types:

1. **Direct canonical enumeration** — the candidates are
   :func:`repro.core.symmetry.iter_canonical_placements`, which
   produces exactly one representative per symmetry orbit *directly*
   (no rejected duplicates are ever constructed); the raw pre-dedupe
   candidate count is computed analytically by
   :func:`repro.core.placement.count_placements`.  A request with an
   explicit ``candidates`` list scores that list as-is instead.
2. **Coarse scoring (pass 1)** — :class:`FlexibleMaxFlowScorer`, the
   paper's time-search max flow on *flexible* class demands, solved by
   the cut-parametric kernel (:mod:`repro.core.flowmodel`) over one
   :class:`~repro.core.flowmodel.ChassisNetwork` per search: each
   candidate is a capacity vector over it, so pass 1 builds no
   topology.  Candidates are scored in fixed batches of
   :data:`PASS1_BATCH`, in enumeration order, each solved on its own
   from t = 0.  Its throughput is an upper bound on the exact score
   (the class demand is a relaxation of any concrete bin split), which
   makes it the top-k funnel key.  No candidate's time beats the network's
   :class:`~repro.core.flowmodel.EgressCeiling`, so pass 1 stops at the
   first batch end by which ``lp_top_k`` candidates have reached it: a
   later candidate could at best tie them and would then lose on
   enumeration index, so the finalists are the full scan's.
3. **Exact scoring (pass 2)** — :class:`MulticommodityScorer`, the
   multicommodity concurrent-flow LP on the concretised demand.  The
   ``lp_top_k`` best pass-1 candidates reach this stage and every one
   of them is LP-scored; the highest exact score wins.

Scoring runs on a :class:`ParallelExecutor`: ``workers=1`` executes
inline, one chunk at a time; ``workers>1`` keeps at most ``workers``
chunks in flight on a ``concurrent.futures`` process pool and drops
what is in flight when pass 1 stops.  Chunks are cut identically
either way, outcomes come back in chunk order and the final ranking
breaks throughput ties on funnel order (pass-1 score descending,
enumeration index ascending — the pre-engine stable sort), so serial
and parallel runs stop at the same batch and pick the same winner.

Pass 1 keeps only each candidate's prediction; pass 2 builds the
topology of each of its ``lp_top_k`` finalists for its LP and keeps
only the winner's (:attr:`SearchResult.topology`).  Every stage
reports through :mod:`repro.obs`: ``search.candidates``,
``search.unique``, ``search.pass1_scored`` (candidates pass 1 scored),
``search.ceiling_hits``, ``search.pass1_stopped_at`` (only when pass 1
stopped early) and ``search.lp_scored``.
"""

from __future__ import annotations

import heapq
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field, replace
from functools import partial
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro import obs
from repro.core.flowmodel import (
    CPU_CLASS,
    SSD_CLASS,
    ChassisNetwork,
    EgressCeiling,
    FlowPrediction,
    TrafficDemand,
    solve_template,
)
from repro.core.mcmf import McfPrediction, multicommodity_min_time, new_lp_solver
from repro.core.placement import Chassis, Placement, count_placements
from repro.core.symmetry import iter_canonical_placements
from repro.core.topology import NodeKind, Topology, TopologyMask

if TYPE_CHECKING:  # pragma: no cover - type hints only, avoids import cycle
    from repro.hardware.machines import MachineSpec


#: Candidates per pass-1 scoring batch.  Pass 1 stops only at a batch
#: end, so every worker count must cut the candidate stream into the
#: same batches to stop at the same candidate — a determinism
#: requirement, not a tuning knob.
PASS1_BATCH = 32


# ----------------------------------------------------------------------
# Process-wide knob defaults (env-overridable, CLI-settable)
# ----------------------------------------------------------------------
_DEFAULT_WORKERS: Optional[int] = None


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
    """Always ``False``: pass 2 LP-scores every finalist and has no
    bound pruning.  Kept as a constant only because recorded run
    environments (``perfbench/common.py::env_record``) report it."""
    return False


def default_batch_size() -> int:
    """The pass-1 scoring batch size, :data:`PASS1_BATCH`."""
    return PASS1_BATCH


def default_warm_starts() -> bool:
    """Always ``False``: every pass-1 solve starts at t = 0 and no cut
    is carried from one solve to another.  Kept as a constant only
    because recorded run environments
    (``perfbench/common.py::env_record``) report it."""
    return False


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
    return _flexible_demand(
        topo.gpus(), fractions, bytes_per_gpu, gpu_cache_policy
    )


def _flexible_demand(
    gpus: List[str],
    fractions: Tuple[float, float, float],
    bytes_per_gpu: float = 1e9,
    gpu_cache_policy: str = "replicated",
) -> TrafficDemand:
    """:func:`scoring_demand` over the given (sorted) GPU labels."""
    f_gpu, f_cpu, f_ssd = fractions
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
@dataclass(frozen=True)
class FlexibleMaxFlowScorer:
    """Pass 1: time-search max flow on flexible class demands.

    The solver decides how much traffic each drive/bank should ideally
    serve — these weights are what DDAK will realise via data placement,
    and the resulting throughput is an optimistic *upper bound* on the
    exact pass-2 score.

    Solved by the cut-parametric kernel (:mod:`repro.core.flowmodel`),
    which returns the *exact* breakpoint time — no bisection, no
    tolerance.
    """

    fractions: Tuple[float, float, float]
    gpu_cache_policy: str = "replicated"

    def network(
        self,
        machine: "MachineSpec",
        num_gpus: int,
        num_ssds: int,
        nvlink_pairs: Optional[Tuple[Tuple[int, int], ...]] = None,
        mask: Optional[TopologyMask] = None,
    ) -> ChassisNetwork:
        """The chassis network every ``num_gpus``/``num_ssds``
        placement on ``machine`` is scored over."""
        demand = partial(
            _flexible_demand,
            fractions=self.fractions,
            gpu_cache_policy=self.gpu_cache_policy,
        )
        return ChassisNetwork(
            machine, num_gpus, num_ssds, demand, nvlink_pairs, mask
        )

    def score_batch(
        self,
        placements: Sequence[Placement],
        network_for: Callable[[Placement], ChassisNetwork],
    ) -> List[FlowPrediction]:
        """Score a batch of placements, each on its own as a capacity
        vector over ``network_for(placement)``."""
        return [solve_template(network_for(p).template(p)) for p in placements]


@dataclass(frozen=True)
class MulticommodityScorer:
    """Pass 2: exact multicommodity LP on the concretised demand.

    Each bin's pass-1 share is fanned out *evenly across GPUs* — the
    dataset is shared, so every GPU reads from every bin; a placement
    only scores well if that all-to-all pattern fits its fabric.

    ``solver`` is a HiGHS instance (:func:`repro.core.mcmf.new_lp_solver`)
    reused for every LP this scorer solves; ``None`` solves each LP on a
    fresh one.  It is not a setting: :class:`_ScoreRuntime` binds one
    per runtime, so a solver never crosses threads or processes.
    """

    fractions: Tuple[float, float, float]
    gpu_cache_policy: str = "replicated"
    solver: Optional[object] = field(default=None, compare=False, repr=False)

    def score(
        self, topo: Topology, placement: Placement, prior: FlowPrediction = None
    ) -> McfPrediction:
        demand = concrete_demand(
            topo,
            self.fractions,
            prior.storage_rate if prior is not None else {},
            gpu_cache_policy=self.gpu_cache_policy,
        )
        return multicommodity_min_time(topo, demand, self.solver)


# ----------------------------------------------------------------------
# Scoring runtime: topology build + stage dispatch (shared by the
# inline path and every pool worker)
# ----------------------------------------------------------------------
class ChunkOutcome(NamedTuple):
    """What one scored chunk hands back, inline or across the pool."""

    #: ``(index, prediction)`` per item, in item order.
    results: List[Tuple[int, object]]
    #: An ``"exact"`` chunk's best row as ``(index, topology)``: the one
    #: topology of the chunk that can be the winner's.
    best_topology: Optional[Tuple[int, Topology]] = None


class _ScoreRuntime:
    """Runs one stage on a chunk of candidates.

    A ``"coarse"`` chunk is one pass-1 batch, scored over the search's
    :class:`~repro.core.flowmodel.ChassisNetwork` for the candidates'
    pool (built on first use, once per runtime), each candidate solved
    on its own.  An ``"exact"`` chunk builds each candidate's topology
    and LP-scores it against its pass-1 prediction, on one HiGHS
    instance per runtime (made on the first exact chunk, in the process
    that runs it), and keeps only the topology of its best row.
    """

    def __init__(
        self,
        machine: "MachineSpec",
        nvlink_pairs: Optional[Tuple[Tuple[int, int], ...]],
        coarse: FlexibleMaxFlowScorer,
        exact: MulticommodityScorer,
        mask: Optional[TopologyMask] = None,
    ) -> None:
        self.machine = machine
        self.nvlink_pairs = nvlink_pairs
        self.coarse = coarse
        self.exact = exact
        self.mask = mask
        self._networks: Dict[Tuple[int, int], ChassisNetwork] = {}
        self._lp_scorer: Optional[MulticommodityScorer] = None

    def network(self, placement: Placement) -> ChassisNetwork:
        """The pass-1 network for ``placement``'s own GPU/SSD totals."""
        key = (placement.num_gpus, placement.num_ssds)
        network = self._networks.get(key)
        if network is None:
            network = self._networks[key] = self.coarse.network(
                self.machine, *key, self.nvlink_pairs, self.mask
            )
        return network

    def topology(self, placement: Placement) -> Topology:
        # finalists come from the validated enumeration, so the chassis
        # and topology invariant sweeps are skipped
        topo = self.machine.build(
            placement, nvlink_pairs=self.nvlink_pairs, validate=False
        )
        if self.mask:
            # degraded-fabric search (replanning): every candidate is
            # scored on the surviving topology
            topo = self.mask.apply(topo)
        return topo

    def run_chunk(
        self, stage: str, items: Sequence[Tuple[int, Placement, object]]
    ) -> ChunkOutcome:
        """Score one chunk of ``(index, placement, pass-1 prediction)``."""
        if stage == "coarse":
            predictions = self.coarse.score_batch(
                [placement for _, placement, _ in items], self.network
            )
            return ChunkOutcome(
                [
                    (idx, prediction)
                    for (idx, _, _), prediction in zip(items, predictions)
                ]
            )
        if self._lp_scorer is None:
            self._lp_scorer = replace(self.exact, solver=new_lp_solver())
        results = []
        best_topology, best_throughput = None, 0.0
        for idx, placement, p1 in items:
            topo = self.topology(placement)
            mcf = self._lp_scorer.score(topo, placement, p1)
            results.append((idx, mcf))
            # items arrive in index order: the first of a tie stays best
            if best_topology is None or mcf.throughput > best_throughput:
                best_topology, best_throughput = (idx, topo), mcf.throughput
        return ChunkOutcome(results, best_topology=best_topology)


_WORKER_RUNTIME: Optional[_ScoreRuntime] = None


def _pool_init(*runtime_args) -> None:
    global _WORKER_RUNTIME
    _WORKER_RUNTIME = _ScoreRuntime(*runtime_args)


def _pool_chunk(stage, items):
    return _WORKER_RUNTIME.run_chunk(stage, items)


class ParallelExecutor:
    """Chunked stage execution, inline or over a process pool.

    ``workers=1`` runs every chunk in-process through the exact same
    :class:`_ScoreRuntime` code path the pool workers use, so the serial
    engine is bit-identical to the parallel one; outcomes always come
    back in chunk order.
    """

    def __init__(
        self,
        machine: "MachineSpec",
        nvlink_pairs: Optional[Tuple[Tuple[int, int], ...]],
        coarse: FlexibleMaxFlowScorer,
        exact: MulticommodityScorer,
        workers: int = 1,
        mask: Optional[TopologyMask] = None,
    ) -> None:
        self.workers = max(1, int(workers))
        self._init_args = (machine, nvlink_pairs, coarse, exact, mask)
        self._local = _ScoreRuntime(*self._init_args)
        self._pool: Optional[ProcessPoolExecutor] = None

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
    def ceiling(self, placement: Placement) -> Optional[EgressCeiling]:
        """The storage-egress bound of ``placement``'s pool network."""
        return self._local.network(placement).ceiling

    def stream_stage(
        self,
        stage: str,
        chunks: Iterable[Sequence[Tuple[int, Placement, object]]],
    ) -> Iterator[ChunkOutcome]:
        """Score ``chunks`` with the named stage, yielding each chunk's
        outcome in chunk order.

        Inline, a chunk is scored only when the consumer asks for it.
        On the pool at most ``workers`` chunks are in flight: the next
        is submitted as the oldest is handed over.  A consumer that
        stops early discards what is still in flight.
        """
        if self._pool is None:
            for chunk in chunks:
                yield self._local.run_chunk(stage, chunk)
            return
        in_flight: deque = deque()
        try:
            for chunk in chunks:
                in_flight.append(self._pool.submit(_pool_chunk, stage, chunk))
                if len(in_flight) == self.workers:
                    yield in_flight.popleft().result()
            while in_flight:
                yield in_flight.popleft().result()
        finally:
            for future in in_flight:
                future.cancel()

    def run_stage(
        self,
        stage: str,
        items: Sequence[Tuple[int, Placement, object]],
        chunk_size: int,
    ) -> List[ChunkOutcome]:
        """Score all of ``items`` with the named stage, cut into
        ``chunk_size`` chunks the same way inline and on the pool."""
        items = list(items)
        return list(
            self.stream_stage(
                stage,
                (
                    items[i : i + chunk_size]
                    for i in range(0, len(items), chunk_size)
                ),
            )
        )


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
    #: Candidates kept in the ranked result.
    top_k: int = 10
    #: Scoring processes; None = :func:`default_workers` (env/CLI).
    workers: Optional[int] = None
    #: Restrict the search to these placements (skips enumeration and
    #: symmetry dedupe, e.g. data-placement-only runs à la §4.5).
    candidates: Optional[Tuple[Placement, ...]] = None
    #: Score every candidate on the degraded (surviving) topology —
    #: used by fault replanning.  ``None`` searches the healthy fabric.
    mask: Optional[TopologyMask] = None

    def resolved_workers(self) -> int:
        """The effective worker count for this request."""
        if self.workers is None:
            return default_workers()
        return max(1, int(self.workers))


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
    #: Candidates after symmetry pruning (the whole canonical set).
    num_unique: int = 0
    #: Candidates pass 1 scored before it stopped at the ceiling.
    num_pass1_scored: int = 0
    #: Scored candidates whose pass-1 time reached the ceiling.
    ceiling_hits: int = 0
    #: The ceiling's binding cut (:attr:`EgressCeiling.cut`); ``None``
    #: when the search had no ceiling.
    ceiling_cut: Optional[str] = None
    #: Finalists the LP scored: ``min(lp_top_k, num_unique)``.
    num_lp_scored: int = 0
    #: Effective parallelism the search ran with.
    workers: int = 1
    #: Wall-clock duration of the engine run (``search.run`` span).
    seconds: float = 0.0
    #: Pass-1 scoring batches scored (serial and parallel alike).
    num_batches: int = 0
    #: The winner's topology as pass 2 scored it (under the request's
    #: ``mask``, if any).
    topology: Optional[Topology] = None


class _Pass1(NamedTuple):
    """What pass 1 scored, and where and why it stopped."""

    #: ``(index, placement, prediction)`` per scored candidate, in
    #: enumeration order.
    entries: List[Tuple[int, Placement, FlowPrediction]]
    ceiling: Optional[EgressCeiling]
    hits: int
    batch_sizes: List[int]


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class SearchEngine:
    """Candidates → pass-1 batches → top-k funnel → pass-2 LPs.

    Determinism contract: for fixed candidates and scorers, the winner
    and the ranked top-k are identical for every ``workers`` count;
    throughput ties break on funnel order (pass-1 score descending,
    enumeration index ascending), matching the pre-engine serial path
    bit-for-bit.
    """

    def __init__(
        self,
        placements: Iterable[Placement],
        num_candidates: int,
        executor: ParallelExecutor,
        lp_top_k: int = 48,
        top_k: int = 10,
    ) -> None:
        self.placements = placements
        self.num_candidates = num_candidates
        self.executor = executor
        self.lp_top_k = max(1, lp_top_k)
        self.top_k = max(1, top_k)

    # -- stage 1: coarse-score candidates up to the ceiling ---------------
    def _ceiling(self, placements: List[Placement]) -> Optional[EgressCeiling]:
        """The bound every candidate's pass-1 time is at least: the
        storage-egress ceiling of their one pool (``None`` for a mixed
        or empty candidate list)."""
        pools = {(p.num_gpus, p.num_ssds) for p in placements}
        if len(pools) != 1:
            return None
        return self.executor.ceiling(placements[0])

    def _score_pass1(self, placements: List[Placement]) -> _Pass1:
        """Pass-1 score candidates in :data:`PASS1_BATCH` batches, in
        enumeration order, up to the first batch end by which
        ``lp_top_k`` of them have reached the ceiling.

        Those candidates have the best pass-1 throughput any candidate
        can have, so a later one at best ties them and then loses on
        enumeration index: the finalists are the full scan's.
        """
        ceiling = self._ceiling(placements)
        n = len(placements)
        chunks = (
            [
                (idx, placements[idx], None)
                for idx in range(start, min(start + PASS1_BATCH, n))
            ]
            for start in range(0, n, PASS1_BATCH)
        )
        entries: List[Tuple[int, Placement, FlowPrediction]] = []
        hits = 0
        batch_sizes: List[int] = []
        with closing(self.executor.stream_stage("coarse", chunks)) as stream:
            for outcome in stream:
                batch_sizes.append(len(outcome.results))
                for idx, prediction in outcome.results:
                    entries.append((idx, placements[idx], prediction))
                    if ceiling is not None and prediction.time <= ceiling.time:
                        hits += 1
                if hits >= self.lp_top_k:
                    break
        return _Pass1(entries, ceiling, hits, batch_sizes)

    # -- stage 2: top-k funnel + exact scoring ----------------------------
    def _select_finalists(self, entries):
        """The ``lp_top_k`` best pass-1 candidates, best first: a stable
        descending sort on pass-1 throughput (ties keep enumeration
        order), truncated."""
        return heapq.nsmallest(
            self.lp_top_k,
            entries,
            key=lambda entry: (-entry[2].throughput, entry[0]),
        )

    def _score_exact(self, finalists):
        """LP-score every finalist in one ``"exact"`` stage, split into
        one chunk per worker, and rank by exact throughput.  Returns the
        ranked rows and the winner's topology.

        Finalists arrive in funnel order (pass-1 score descending,
        enumeration index ascending); sorting on that position breaks
        throughput ties exactly as the serial reference path does, and
        the winner is the best row of its own chunk.
        """
        outcomes = self.executor.run_stage(
            "exact",
            [
                (pos, placement, p1)
                for pos, (_, placement, p1) in enumerate(finalists)
            ],
            chunk_size=-(-len(finalists) // self.executor.workers),
        )
        scored = []
        topologies = {}
        for outcome in outcomes:
            for pos, mcf in outcome.results:
                _, placement, p1 = finalists[pos]
                scored.append(
                    (pos, ScoredPlacement(placement, mcf.throughput, p1, mcf))
                )
            pos, topo = outcome.best_topology
            topologies[pos] = topo
        ranked = sorted(scored, key=lambda pair: (-pair[1].throughput, pair[0]))
        return [row for _, row in ranked], topologies[ranked[0][0]]

    # -- entry point ------------------------------------------------------
    def run(self) -> SearchResult:
        """Execute the full pipeline and return the ranked result."""
        with obs.span(
            "search.run",
            workers=self.executor.workers,
            lp_top_k=self.lp_top_k,
        ) as root:
            placements = list(self.placements)
            with self.executor:
                with obs.span("search.pass1") as sp:
                    pass1 = self._score_pass1(placements)
                    sp.set(
                        candidates=self.num_candidates,
                        unique=len(placements),
                        scored=len(pass1.entries),
                        ceiling_hits=pass1.hits,
                    )
                if not pass1.entries:
                    raise ValueError("no placements to score")
                with obs.span("search.pass2") as sp:
                    ranked, topology = self._score_exact(
                        self._select_finalists(pass1.entries)
                    )
                    sp.set(lp_scored=len(ranked))
            result = SearchResult(
                best=ranked[0],
                scored=ranked[: self.top_k],
                num_candidates=self.num_candidates,
                num_unique=len(placements),
                num_pass1_scored=len(pass1.entries),
                ceiling_hits=pass1.hits,
                ceiling_cut=pass1.ceiling.cut if pass1.ceiling else None,
                num_lp_scored=len(ranked),
                workers=self.executor.workers,
                num_batches=len(pass1.batch_sizes),
                topology=topology,
            )
            root.set(
                unique=result.num_unique,
                throughput=result.best.throughput,
            )
        result.seconds = root.duration
        obs.add("search.candidates", result.num_candidates)
        obs.add("search.unique", result.num_unique)
        obs.add("search.pass1_scored", result.num_pass1_scored)
        obs.add("search.ceiling_hits", result.ceiling_hits)
        if result.num_pass1_scored < result.num_unique:
            obs.add("search.pass1_stopped_at", result.num_pass1_scored)
        obs.add("search.lp_scored", result.num_lp_scored)
        for size in pass1.batch_sizes:
            obs.observe("search.batch_size", size)
        return result


def run_search(request: SearchRequest) -> SearchResult:
    """Solve one :class:`SearchRequest` with the default pipeline.

    Raises ``ValueError`` when no placement fits the requested pool.
    """
    machine = request.machine
    if request.candidates is not None:
        placements: Iterable[Placement] = request.candidates
        num_candidates = len(request.candidates)
    else:
        placements = iter_canonical_placements(
            machine.chassis, request.num_gpus, request.num_ssds
        )
        num_candidates = count_placements(
            machine.chassis, request.num_gpus, request.num_ssds
        )
    executor = ParallelExecutor(
        machine,
        request.nvlink_pairs,
        FlexibleMaxFlowScorer(
            fractions=request.fractions,
            gpu_cache_policy=request.gpu_cache_policy,
        ),
        MulticommodityScorer(
            fractions=request.fractions,
            gpu_cache_policy=request.gpu_cache_policy,
        ),
        workers=request.resolved_workers(),
        mask=request.mask,
    )
    engine = SearchEngine(
        placements,
        num_candidates,
        executor,
        lp_top_k=request.lp_top_k,
        top_k=request.top_k,
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
