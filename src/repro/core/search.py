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
   :data:`PASS1_BATCH`, and each batch's first solution warm-starts the
   rest (``search.warm_starts``).  Its
   throughput is an upper bound on the exact score (the class demand is
   a relaxation of any concrete bin split), which makes it both the
   top-k funnel key and the pruning bound.
3. **Exact scoring (pass 2)** — :class:`MulticommodityScorer`, the
   multicommodity concurrent-flow LP on the concretised demand.  Only
   the ``lp_top_k`` best pass-1 candidates reach this stage, and with
   ``prune_bounds`` on, a candidate whose pass-1 upper bound cannot
   beat the current best-``top_k`` floor by more than
   :data:`PRUNE_REL_SLACK` skips the LP — the winner's throughput is
   preserved to within :data:`PRUNE_EQUIV_TOL` (LP-solver noise).

Scoring runs on a :class:`ParallelExecutor`: ``workers=1`` executes
inline, ``workers>1`` submits every chunk of a stage to a
``concurrent.futures`` process pool before collecting any.  Chunks are
cut identically either way, results are reassembled by enumeration
index and the final ranking breaks throughput ties on funnel order
(pass-1 score descending, enumeration index ascending — the pre-engine
stable sort), so serial and parallel runs pick the same winner.

Pass 1 keeps only each candidate's prediction; pass 2 builds the
topology of each of its ``lp_top_k`` finalists for its LP and drops it
once scored.  Every stage reports
through :mod:`repro.obs`: ``search.candidates``, ``search.unique``,
``search.pass1_scored``, ``search.lp_scored``, ``search.pruned_by_bound``
and ``search.warm_starts``.
"""

from __future__ import annotations

import heapq
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
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
    FlowPrediction,
    TrafficDemand,
    solve_batch,
)
from repro.core.mcmf import McfPrediction, multicommodity_min_time, new_lp_solver
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

#: Candidates per pass-1 scoring batch.  Warm-start chaining operates
#: within a batch, so serial and parallel runs must cut the candidate
#: stream into the same batches — a determinism requirement, not a
#: tuning knob.
PASS1_BATCH = 32


# ----------------------------------------------------------------------
# Process-wide knob defaults (env-overridable, CLI-settable)
# ----------------------------------------------------------------------
_DEFAULT_WORKERS: Optional[int] = None
_DEFAULT_PRUNE: Optional[bool] = None


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

    Off by default: pruning preserves the winner's *throughput* only to
    within :data:`PRUNE_EQUIV_TOL` and may pick a different member of a
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
    """The pass-1 scoring batch size, :data:`PASS1_BATCH`."""
    return PASS1_BATCH


def default_warm_starts() -> bool:
    """Pass-1 warm starts are always on: a warm cut only seeds the
    cut-parametric time search with a valid lower bound, so warm and
    cold solves converge to the *same* exact breakpoint."""
    return True


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
        warm_partition: Optional[Tuple[str, ...]] = None,
    ) -> Tuple[List[FlowPrediction], int]:
        """Score a batch of placements, warm-start chained, each as a
        capacity vector over ``network_for(placement)``.

        Returns ``(predictions, warm_starts)``; see
        :func:`repro.core.flowmodel.solve_batch`.
        """
        return solve_batch(
            (network_for(p).template(p) for p in placements), warm_partition
        )


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
class _ScoreRuntime:
    """Runs one stage on a chunk of candidates.

    A ``"coarse"`` chunk is one pass-1 batch, scored over the search's
    :class:`~repro.core.flowmodel.ChassisNetwork` for the candidates'
    pool (built on first use, once per runtime): its first candidate is
    solved alone (seeded by ``warm_cut``) and its binding cut
    warm-starts the rest.  Chaining never crosses a chunk boundary, and
    :meth:`ParallelExecutor.run_stage` cuts chunks identically inline
    and on the pool, so every worker count solves identical batches.
    An ``"exact"`` chunk builds each candidate's topology and LP-scores
    it against its pass-1 prediction, on one HiGHS instance per runtime
    (made on the first exact chunk, in the process that runs it).
    """

    def __init__(
        self,
        machine: "MachineSpec",
        nvlink_pairs: Optional[Tuple[Tuple[int, int], ...]],
        coarse: FlexibleMaxFlowScorer,
        exact: MulticommodityScorer,
        mask: Optional[TopologyMask] = None,
        warm_cut: Optional[Tuple[str, ...]] = None,
    ) -> None:
        self.machine = machine
        self.nvlink_pairs = nvlink_pairs
        self.coarse = coarse
        self.exact = exact
        self.mask = mask
        self.warm_cut = warm_cut
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
    ) -> Tuple[List[Tuple[int, object]], int]:
        """Score one chunk; returns ``(results, warm_starts)`` with the
        pass-1 warm-start count for this chunk."""
        warm_starts = 0
        if stage == "coarse":
            predictions, warm_starts = self.coarse.score_batch(
                [placement for _, placement, _ in items],
                self.network,
                self.warm_cut,
            )
            results = [
                (idx, prediction)
                for (idx, _, _), prediction in zip(items, predictions)
            ]
        else:
            if self._lp_scorer is None:
                self._lp_scorer = replace(
                    self.exact, solver=new_lp_solver()
                )
            results = [
                (
                    idx,
                    self._lp_scorer.score(
                        self.topology(placement), placement, p1
                    ),
                )
                for idx, placement, p1 in items
            ]
        return results, warm_starts


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
    engine is bit-identical to the parallel one; results are always
    reassembled in submission (enumeration-index) order.
    """

    def __init__(
        self,
        machine: "MachineSpec",
        nvlink_pairs: Optional[Tuple[Tuple[int, int], ...]],
        coarse: FlexibleMaxFlowScorer,
        exact: MulticommodityScorer,
        workers: int = 1,
        mask: Optional[TopologyMask] = None,
        warm_cut: Optional[Tuple[str, ...]] = None,
    ) -> None:
        self.workers = max(1, int(workers))
        self._init_args = (machine, nvlink_pairs, coarse, exact, mask, warm_cut)
        self._local = _ScoreRuntime(*self._init_args)
        self._pool: Optional[ProcessPoolExecutor] = None
        self.warm_starts = 0
        #: Size of every pass-1 batch scored, in submission order.
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
    def run_stage(
        self,
        stage: str,
        items: Sequence[Tuple[int, Placement, object]],
        chunk_size: int,
    ) -> List[Tuple[int, object]]:
        """Score ``items`` with the named stage, in index order.

        ``items`` is cut into ``chunk_size`` chunks the same way inline
        and on the pool; the pool gets every chunk before any result is
        awaited, so chunks run concurrently.
        """
        items = list(items)
        chunks = [
            items[i : i + chunk_size]
            for i in range(0, len(items), chunk_size)
        ]
        if self._pool is None:
            outcomes = [self._local.run_chunk(stage, chunk) for chunk in chunks]
        else:
            futures = [
                self._pool.submit(_pool_chunk, stage, chunk)
                for chunk in chunks
            ]
            outcomes = [future.result() for future in futures]
        results: List[Tuple[int, object]] = []
        for chunk, (chunk_results, warm) in zip(chunks, outcomes):
            results.extend(chunk_results)
            self.warm_starts += warm
            if stage == "coarse":
                self.batch_sizes.append(len(chunk))
        results.sort(key=lambda pair: pair[0])
        return results


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
    #: Effective parallelism the search ran with.
    workers: int = 1
    #: Wall-clock duration of the engine run (``search.run`` span).
    seconds: float = 0.0
    #: Pass-1 solves that started from a warm (non-zero) cut root.
    warm_starts: int = 0
    #: Pass-1 scoring batches dispatched (serial and parallel alike).
    num_batches: int = 0


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class SearchEngine:
    """Candidates → pass-1 batches → top-k funnel → pruned pass-2 LPs.

    Determinism contract: for fixed candidates and scorers, the winner
    and the ranked top-k are identical for every ``workers`` count;
    throughput ties break on funnel order (pass-1 score descending,
    enumeration index ascending), matching the pre-engine serial path
    bit-for-bit.  ``prune_bounds`` preserves the winner's throughput to
    within :data:`PRUNE_EQUIV_TOL` (LP-solver noise) and may pick a
    different member of a solver-noise tie.
    """

    def __init__(
        self,
        placements: Iterable[Placement],
        num_candidates: int,
        executor: ParallelExecutor,
        lp_top_k: int = 48,
        top_k: int = 10,
        prune_bounds: bool = False,
    ) -> None:
        self.placements = placements
        self.num_candidates = num_candidates
        self.executor = executor
        self.lp_top_k = max(1, lp_top_k)
        self.top_k = max(1, top_k)
        self.prune_bounds = prune_bounds

    # -- stage 1: coarse-score every candidate ---------------------------
    def _score_pass1(self):
        """Pass-1 score every candidate in :data:`PASS1_BATCH` batches
        (one executor call, so a pool runs the batches concurrently).
        Returns ``entries`` with ``entries[i] = (index, placement,
        pass1_prediction)`` in enumeration order."""
        placements = list(self.placements)
        results = self.executor.run_stage(
            "coarse",
            [(idx, placement, None) for idx, placement in enumerate(placements)],
            chunk_size=PASS1_BATCH,
        )
        return [
            (idx, placements[idx], prediction) for idx, prediction in results
        ]

    # -- stage 2: top-k funnel + bound-pruned exact scoring ---------------
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
                    entries = self._score_pass1()
                    sp.set(candidates=self.num_candidates, unique=len(entries))
                if not entries:
                    raise ValueError("no placements to score")
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
                num_candidates=self.num_candidates,
                num_unique=len(entries),
                num_finalists=len(finalists),
                num_lp_scored=num_lp,
                pruned_by_bound=pruned,
                workers=self.executor.workers,
                warm_starts=self.executor.warm_starts,
                num_batches=len(self.executor.batch_sizes),
            )
            root.set(
                unique=result.num_unique,
                pruned=result.pruned_by_bound,
                throughput=result.best.throughput,
            )
        result.seconds = root.duration
        obs.add("search.candidates", result.num_candidates)
        obs.add("search.unique", result.num_unique)
        obs.add("search.pass1_scored", result.num_unique)
        obs.add("search.lp_scored", result.num_lp_scored)
        obs.add("search.pruned_by_bound", result.pruned_by_bound)
        obs.add("search.warm_starts", result.warm_starts)
        for size in self.executor.batch_sizes:
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
        warm_cut=request.warm_cut,
    )
    engine = SearchEngine(
        placements,
        num_candidates,
        executor,
        lp_top_k=request.lp_top_k,
        top_k=request.top_k,
        prune_bounds=request.resolved_prune_bounds(),
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
