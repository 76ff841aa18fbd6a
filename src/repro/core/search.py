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
   topology.  A request with a ``mask`` (fault replanning) scores each
   candidate on ``mask.apply(machine.build(p))`` instead, through
   :meth:`~repro.core.flowmodel.FlowTemplate.from_topology`: the
   chassis network only describes the healthy fabric.  Candidates are
   scored in fixed batches of :data:`PASS1_BATCH`, in enumeration
   order, each solved on its own from t = 0.  Its throughput is an upper bound on the exact score
   (the class demand is a relaxation of any concrete bin split), which
   makes it the top-k funnel key.  No candidate's time beats the network's
   :class:`~repro.core.flowmodel.EgressCeiling`, so pass 1 stops at the
   first batch end by which ``lp_top_k`` candidates have reached it: a
   later candidate could at best tie them and would then lose on
   enumeration index, so the finalists are the full scan's.  A masked
   search has no ceiling and scans its candidates whole.
3. **Exact scoring (pass 2)** — :class:`MulticommodityScorer`, the
   multicommodity concurrent-flow LP on the concretised demand.  The
   ``lp_top_k`` best pass-1 candidates reach this stage and every one
   of them is LP-scored; the highest exact score wins.

Every search runs inline, in the calling process: pass 1 scores one
batch per :meth:`FlexibleMaxFlowScorer.score_batch` call and pass 2
one finalist per :meth:`MulticommodityScorer.score` call, in funnel
order.  The final ranking breaks throughput ties on funnel order
(pass-1 score descending, enumeration index ascending — the
pre-engine stable sort), so every run stops at the same batch and
picks the same winner.  Multi-core planning is the planning server's
``--solver-processes`` pool, which spreads requests, one search each,
over cores.

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
from dataclasses import dataclass, field, replace
from functools import partial
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
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
    FlowTemplate,
    TrafficDemand,
    solve_template,
)
from repro.core.mcmf import McfPrediction, multicommodity_min_time, new_lp_solver
from repro.core.placement import Chassis, Placement, count_placements
from repro.core.symmetry import iter_canonical_placements
from repro.core.topology import NodeKind, Topology, TopologyMask

if TYPE_CHECKING:  # pragma: no cover - type hints only, avoids import cycle
    from repro.hardware.machines import MachineSpec


#: Candidates per pass-1 scoring batch.  Pass 1 checks its stop only
#: at a batch end, so the stop point is the same on every run.
PASS1_BATCH = 32


def _check_count(value: int, name: str) -> int:
    """``value``; ``ValueError`` naming ``name`` and the value when it
    is below 1."""
    if value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return value


def default_workers() -> int:
    """Always 1: every search runs inline, in the calling process.
    Kept as a constant only because recorded run environments
    (``perfbench/common.py::env_record``) report it."""
    return 1


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
    ) -> ChassisNetwork:
        """The healthy-fabric chassis network every
        ``num_gpus``/``num_ssds`` placement on ``machine`` is scored
        over."""
        demand = partial(
            _flexible_demand,
            fractions=self.fractions,
            gpu_cache_policy=self.gpu_cache_policy,
        )
        return ChassisNetwork(machine, num_gpus, num_ssds, demand, nvlink_pairs)

    def score_batch(
        self,
        placements: Sequence[Placement],
        template_for: Callable[[Placement], Optional[FlowTemplate]],
    ) -> List[FlowPrediction]:
        """Score a batch of placements, each solved on its own network
        ``template_for(placement)``."""
        return [solve_template(template_for(p)) for p in placements]


@dataclass(frozen=True)
class MulticommodityScorer:
    """Pass 2: exact multicommodity LP on the concretised demand.

    Each bin's pass-1 share is fanned out *evenly across GPUs* — the
    dataset is shared, so every GPU reads from every bin; a placement
    only scores well if that all-to-all pattern fits its fabric.

    ``solver`` is a HiGHS instance (:func:`repro.core.mcmf.new_lp_solver`)
    reused for every LP this scorer solves; ``None`` solves each LP on a
    fresh one.  It is not a setting: :class:`_Scoring` binds one per
    search, so a solver never crosses threads or processes.
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
# Scoring: the search's scorers, networks and LP solver
# ----------------------------------------------------------------------
class _Scoring:
    """Scores one search's candidates: pass-1 batches and pass-2 LPs.

    Pass 1 solves each candidate on its own: over the search's
    :class:`~repro.core.flowmodel.ChassisNetwork` for the candidates'
    pool (built on first use), or, under a ``mask``, on the masked
    topology that pass 2 builds too.  Pass 2 builds each finalist's
    topology and LP-scores it against its pass-1 prediction on one HiGHS
    instance, made on the first LP.
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
                self.machine, *key, self.nvlink_pairs
            )
        return network

    def ceiling(self, placement: Placement) -> Optional[EgressCeiling]:
        """The storage-egress bound of ``placement``'s pool network;
        ``None`` under a mask, whose candidates are scanned whole."""
        if self.mask:
            return None
        return self.network(placement).ceiling

    def template(self, placement: Placement) -> Optional[FlowTemplate]:
        """``placement``'s pass-1 network."""
        if not self.mask:
            return self.network(placement).template(placement)
        topo = self.topology(placement)
        demand = scoring_demand(
            topo,
            self.coarse.fractions,
            gpu_cache_policy=self.coarse.gpu_cache_policy,
        )
        return FlowTemplate.from_topology(topo, demand)

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

    def score_pass1(self, batch: Sequence[Placement]) -> List[FlowPrediction]:
        """Pass-1 predictions for one batch, in batch order."""
        return self.coarse.score_batch(batch, self.template)

    def score_pass2(
        self, placement: Placement, prior: FlowPrediction
    ) -> Tuple[McfPrediction, Topology]:
        """``placement``'s LP prediction and the topology it scored."""
        if self._lp_scorer is None:
            self._lp_scorer = replace(self.exact, solver=new_lp_solver())
        topo = self.topology(placement)
        return self._lp_scorer.score(topo, placement, prior), topo


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
    #: Restrict the search to these placements (skips enumeration and
    #: symmetry dedupe, e.g. data-placement-only runs à la §4.5).
    candidates: Optional[Tuple[Placement, ...]] = None
    #: Score every candidate on the degraded (surviving) topology —
    #: used by fault replanning.  ``None`` searches the healthy fabric.
    #: A masked search has no storage-egress ceiling: pass 1 scans its
    #: candidates whole.
    mask: Optional[TopologyMask] = None


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
    #: Wall-clock duration of the engine run (``search.run`` span).
    seconds: float = 0.0
    #: Pass-1 scoring batches scored.
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
    and the ranked top-k are the same on every run; throughput ties
    break on funnel order (pass-1 score descending, enumeration index
    ascending), matching the pre-engine serial path bit-for-bit.
    """

    def __init__(
        self,
        placements: Iterable[Placement],
        num_candidates: int,
        scoring: _Scoring,
        lp_top_k: int = 48,
        top_k: int = 10,
    ) -> None:
        self.placements = placements
        self.num_candidates = num_candidates
        self.scoring = scoring
        self.lp_top_k = _check_count(lp_top_k, "lp_top_k")
        self.top_k = _check_count(top_k, "top_k")

    # -- stage 1: coarse-score candidates up to the ceiling ---------------
    def _ceiling(self, placements: List[Placement]) -> Optional[EgressCeiling]:
        """The bound every candidate's pass-1 time is at least: the
        storage-egress ceiling of their one pool (``None`` for a mixed
        or empty candidate list, or a masked search)."""
        pools = {(p.num_gpus, p.num_ssds) for p in placements}
        if len(pools) != 1:
            return None
        return self.scoring.ceiling(placements[0])

    def _score_pass1(self, placements: List[Placement]) -> _Pass1:
        """Pass-1 score candidates in :data:`PASS1_BATCH` batches, in
        enumeration order, up to the first batch end by which
        ``lp_top_k`` of them have reached the ceiling.

        Those candidates have the best pass-1 throughput any candidate
        can have, so a later one at best ties them and then loses on
        enumeration index: the finalists are the full scan's.
        """
        ceiling = self._ceiling(placements)
        entries: List[Tuple[int, Placement, FlowPrediction]] = []
        hits = 0
        batch_sizes: List[int] = []
        for start in range(0, len(placements), PASS1_BATCH):
            batch = placements[start : start + PASS1_BATCH]
            batch_sizes.append(len(batch))
            predictions = self.scoring.score_pass1(batch)
            for idx, prediction in enumerate(predictions, start):
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
        """LP-score every finalist in funnel order and rank by exact
        throughput.  Returns the ranked rows and the winner's topology.

        Finalists arrive in funnel order (pass-1 score descending,
        enumeration index ascending); sorting on that position breaks
        throughput ties exactly as the serial reference path does.
        Only the topology of the first row with the maximum throughput
        is kept.
        """
        scored = []
        best_topology, best_throughput = None, 0.0
        for pos, (_, placement, p1) in enumerate(finalists):
            mcf, topo = self.scoring.score_pass2(placement, p1)
            scored.append(
                (pos, ScoredPlacement(placement, mcf.throughput, p1, mcf))
            )
            # the first of a tie stays best
            if best_topology is None or mcf.throughput > best_throughput:
                best_topology, best_throughput = topo, mcf.throughput
        ranked = sorted(scored, key=lambda pair: (-pair[1].throughput, pair[0]))
        return [row for _, row in ranked], best_topology

    # -- entry point ------------------------------------------------------
    def run(self) -> SearchResult:
        """Execute the full pipeline and return the ranked result."""
        with obs.span("search.run", lp_top_k=self.lp_top_k) as root:
            placements = list(self.placements)
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
    scoring = _Scoring(
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
        mask=request.mask,
    )
    engine = SearchEngine(
        placements,
        num_candidates,
        scoring,
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
