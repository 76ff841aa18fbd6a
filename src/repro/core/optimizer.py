"""Moment's automatic module (paper Figure 8, Sections 3.1–3.3).

Pipeline, run once per (machine, device pool, dataset):

1. **Hotness** — pre-sample the training workload (or accept a vector);
2. **Tier fractions** — greedy hottest-first fill of GPU/CPU/SSD
   capacity gives the fraction of feature traffic each tier serves;
3. **Enumerate** — all slot-feasible hardware placements, pruned by
   chassis-symmetry canonicalisation;
4. **Score** — each candidate topology gets the min-completion-time max-flow
   treatment on a demand built from the tier fractions (per-GPU demand
   is even: data-parallel training); highest predicted throughput wins;
5. **DDAK** — the winner's per-storage-node optimal flows become the
   ``Bin_traffic`` targets for the data-distribution-aware knapsack.

The result is a :class:`MomentPlan`: hardware placement + topology +
data placement + prediction, ready for the epoch simulator or reports.
Its DDAK data placement is computed on first read: a system run places
data itself, from reconciled rates and its cache budget, and never
reads the plan's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.ddak import Bin, DataPlacement, ddak_place, make_bins
from repro.core.flowmodel import FlowPrediction
from repro.core.mcmf import McfPrediction
from repro.core.placement import Placement
from repro.core.search import (
    ScoredPlacement,
    SearchRequest,
    SearchResult,
    _check_count,
    run_search,
)
from repro.core.topology import Topology
from repro.graphs.datasets import ScaledDataset
from repro.hardware.machines import MachineSpec
from repro.sampling.hotness import presample_hotness
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_fraction

__all__ = [
    "CapacityPlan",
    "MomentOptimizer",
    "MomentPlan",
    "OptimizerConfig",
    "capacity_plan",
    "tier_fractions",
]


@dataclass(frozen=True)
class CapacityPlan:
    """Per-device embedding-cache budgets at the dataset's scale."""

    gpu_cache_bytes: float
    cpu_cache_bytes: float
    ssd_capacity_bytes: float


def capacity_plan(
    machine: MachineSpec,
    dataset: ScaledDataset,
    gpu_cache_fraction: float = 0.6,
    cpu_cache_vertex_fraction: float = 0.01,
) -> CapacityPlan:
    """Budget each tier's embedding cache.

    GPUs reserve HBM for model/activations/I-O buffers and give
    ``gpu_cache_fraction`` to embeddings.  The CPU cache follows the
    paper's experimental setting — "leveraging CPU memory as a cache for
    1% of the vertices from each dataset" (Section 4.1) — capped by
    what fits after each bank's half of the graph topology (Moment
    keeps adjacency in DRAM).  All budgets are divided by the dataset
    scale (DESIGN.md §6).
    """
    check_fraction("gpu_cache_fraction", gpu_cache_fraction)
    check_fraction("cpu_cache_vertex_fraction", cpu_cache_vertex_fraction)
    spec = dataset.spec
    num_banks = max(1, len(machine.chassis.memories))
    gpu_cache = machine.gpu.hbm_bytes * gpu_cache_fraction
    per_bank_free = max(0.0, machine.cpu.mem_bytes - spec.topology_bytes / num_banks)
    cpu_cache_target = (
        cpu_cache_vertex_fraction * spec.num_vertices * spec.feature_bytes
    ) / num_banks
    cpu_cache = min(per_bank_free, cpu_cache_target)
    return CapacityPlan(
        gpu_cache_bytes=dataset.scaled_capacity(gpu_cache),
        cpu_cache_bytes=dataset.scaled_capacity(cpu_cache),
        ssd_capacity_bytes=dataset.scaled_capacity(machine.ssd.capacity_bytes),
    )


def tier_fractions(
    hotness: np.ndarray,
    feature_bytes: int,
    plan: CapacityPlan,
    num_gpus: int,
    num_banks: int = 2,
    gpu_cache_policy: str = "replicated",
) -> Tuple[float, float, float]:
    """Fractions of feature traffic served by (GPU, CPU, SSD) tiers.

    Assumes caches hold the hottest vertices (what both DDAK and the
    hash baseline's hot caches do) and every access is equally likely
    to originate at any GPU.  Under the default *replicated* GPU-cache
    policy every GPU holds the same hot set, so the distinct GPU-cached
    slots are one GPU's worth; the *partitioned* ablation multiplies by
    the GPU count (distinct content, peer reads cross the fabric).
    """
    if feature_bytes <= 0:
        raise ValueError(
            f"tier_fractions: feature_bytes must be positive, got "
            f"{feature_bytes!r} — cannot size cache slots"
        )
    hotness = np.asarray(hotness, dtype=np.float64)
    if hotness.size == 0:
        raise ValueError(
            "tier_fractions: hotness vector is empty — the dataset has no "
            "vertices to place"
        )
    h = np.sort(hotness)[::-1]
    total = h.sum()
    if total <= 0:
        return (0.0, 0.0, 1.0)
    copies = 1 if gpu_cache_policy == "replicated" else num_gpus
    gpu_slots = int(plan.gpu_cache_bytes // feature_bytes) * copies
    cpu_slots = int(plan.cpu_cache_bytes // feature_bytes) * num_banks
    gpu_slots = min(gpu_slots, h.size)
    cpu_slots = min(cpu_slots, h.size - gpu_slots)
    f_gpu = float(h[:gpu_slots].sum() / total)
    f_cpu = float(h[gpu_slots : gpu_slots + cpu_slots].sum() / total)
    return (f_gpu, f_cpu, 1.0 - f_gpu - f_cpu)


@dataclass
class MomentPlan:
    """Everything the automatic module decides."""

    placement: Placement
    topology: Topology
    prediction: FlowPrediction
    fractions: Tuple[float, float, float]
    hotness: np.ndarray
    #: DDAK inputs of :attr:`data_placement`: the winner's storage bins
    #: (max-flow traffic targets) and bytes per vertex.
    bins: List[Bin] = field(default_factory=list)
    feature_bytes: int = 0
    #: All candidates scored, best first.
    scored: List[ScoredPlacement] = field(default_factory=list)
    #: Search-space statistics (before/after symmetry pruning).
    num_candidates: int = 0
    num_unique: int = 0
    optimize_seconds: float = 0.0

    #: Pass-2 multicommodity prediction for the winner.
    mcf: Optional["McfPrediction"] = None

    #: Full engine result (stage and LP-scored counts).
    search: Optional[SearchResult] = None

    #: The NVLink pairs :attr:`topology` was built with.
    nvlink_pairs: Optional[Tuple[Tuple[int, int], ...]] = None

    @cached_property
    def data_placement(self) -> DataPlacement:
        """DDAK over :attr:`bins` (the paper's pool of n = 100 vertices),
        computed on first read.

        Raises ``ValueError`` there if the bins cannot hold the dataset.
        """
        with obs.span("optimizer.ddak"):
            return ddak_place(self.bins, self.hotness, self.feature_bytes)

    @property
    def predicted_throughput(self) -> float:
        """The ranking (pass-2 multicommodity) throughput of the winner."""
        if self.mcf is not None:
            return self.mcf.throughput
        return self.prediction.throughput

    def summary(self) -> str:
        """Multi-line human-readable plan description."""
        from repro.utils.units import fmt_rate

        pass_label = (
            "pass-2 multicommodity LP"
            if self.mcf is not None
            else "pass-1 max-flow"
        )
        lines = [
            f"MomentPlan on {self.topology.name}",
            f"  placement: {self.placement!r}",
            f"  predicted throughput: "
            f"{fmt_rate(self.predicted_throughput)} ({pass_label})",
            f"  tier fractions (gpu/cpu/ssd): "
            f"{self.fractions[0]:.2f}/{self.fractions[1]:.2f}/{self.fractions[2]:.2f}",
            f"  search space: {self.num_candidates} candidates, "
            f"{self.num_unique} after symmetry pruning",
            f"  bottlenecks: {', '.join(self.prediction.bottlenecks) or 'none'}",
        ]
        if self.search is not None:
            s = self.search
            lines.append(f"  search engine: {s.num_lp_scored} LP-scored")
            if s.num_pass1_scored < s.num_unique:
                scan = f"stopped at {s.num_pass1_scored} of {s.num_unique}"
            else:
                scan = f"scored all {s.num_unique}"
            if s.ceiling_cut is None:
                lines.append(f"  pass 1 {scan} (no storage-egress ceiling)")
                start = "t = 0"
            else:
                lines.append(
                    f"  pass 1 {scan}: {s.ceiling_hits} candidates reached "
                    f"the ceiling ({s.ceiling_cut})"
                )
                start = "the ceiling"
            lines.append(
                f"  pass 1 started every cut search at {start}: "
                f"{s.num_max_flows} max flows"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of the automatic module."""

    gpu_cache_fraction: float = 0.6
    cpu_cache_vertex_fraction: float = 0.01
    #: Batches of pre-sampling; None = one full epoch (most faithful).
    presample_batches: Optional[int] = None
    #: GPU embedding-cache policy: "replicated" (default) or
    #: "partitioned" (per-GPU content, peer reads over the fabric).
    gpu_cache_policy: str = "replicated"
    fanouts: Tuple[int, ...] = (25, 10)
    #: Keep at most this many top candidates in the report.
    report_top_k: int = 10
    #: Run the exact multicommodity LP only on this many of the best
    #: pass-1 candidates (pass 1 is optimistic, so a generous margin).
    lp_top_k: int = 48
    nvlink_pairs: Optional[Tuple[Tuple[int, int], ...]] = None
    seed: SeedLike = 0

    def __post_init__(self) -> None:
        _check_count(self.lp_top_k, "lp_top_k")
        _check_count(self.report_top_k, "report_top_k")


class MomentOptimizer:
    """The automatic hardware + data placement co-optimizer."""

    def __init__(
        self,
        machine: MachineSpec,
        num_gpus: int = 4,
        num_ssds: int = 8,
        config: Optional[OptimizerConfig] = None,
    ) -> None:
        if num_gpus < 1 or num_ssds < 1:
            raise ValueError("need at least one GPU and one SSD")
        self.machine = machine
        self.num_gpus = num_gpus
        self.num_ssds = num_ssds
        self.config = config or OptimizerConfig()

    # ------------------------------------------------------------------
    def estimate_hotness(self, dataset: ScaledDataset) -> np.ndarray:
        """Pre-sampling hotness pass (paper Section 3.3).

        Counts are smoothed with a small degree-proxy term so vertices
        the pre-sampling epoch happened to miss still rank sensibly
        (hubs before leaves) instead of tying at zero.
        """
        from repro.sampling.hotness import degree_proxy_hotness

        counts = presample_hotness(
            dataset.graph,
            dataset.train_ids,
            dataset.batch_size,
            self.config.fanouts,
            max_batches=self.config.presample_batches,
            seed=ensure_rng(self.config.seed),
        )
        proxy = degree_proxy_hotness(dataset.graph)
        nonzero = counts[counts > 0]
        level = float(nonzero.min()) if nonzero.size else 1.0
        return counts + 0.01 * level * proxy / proxy.mean()

    def plan_fractions(
        self, dataset: ScaledDataset, hotness: np.ndarray
    ) -> Tuple[Tuple[float, float, float], CapacityPlan]:
        """Tier fractions + capacity budgets for one dataset/hotness."""
        cfg = self.config
        plan = capacity_plan(
            self.machine,
            dataset,
            gpu_cache_fraction=cfg.gpu_cache_fraction,
            cpu_cache_vertex_fraction=cfg.cpu_cache_vertex_fraction,
        )
        fractions = tier_fractions(
            hotness,
            dataset.feature_bytes,
            plan,
            self.num_gpus,
            num_banks=len(self.machine.chassis.memories),
            gpu_cache_policy=cfg.gpu_cache_policy,
        )
        return fractions, plan

    def search_request(
        self,
        fractions: Tuple[float, float, float],
        candidates: Optional[Sequence[Placement]] = None,
    ) -> SearchRequest:
        """The :class:`repro.core.search.SearchRequest` this optimizer's
        configuration corresponds to (the engine does the actual work)."""
        cfg = self.config
        return SearchRequest(
            machine=self.machine,
            num_gpus=self.num_gpus,
            num_ssds=self.num_ssds,
            fractions=fractions,
            gpu_cache_policy=cfg.gpu_cache_policy,
            nvlink_pairs=cfg.nvlink_pairs,
            lp_top_k=cfg.lp_top_k,
            top_k=cfg.report_top_k,
            candidates=tuple(candidates) if candidates is not None else None,
        )

    def optimize(
        self,
        dataset: ScaledDataset,
        hotness: Optional[np.ndarray] = None,
        candidates: Optional[Sequence[Placement]] = None,
    ) -> MomentPlan:
        """Run the full automatic module and return the chosen plan.

        ``candidates`` restricts the hardware search (e.g. to a fixed
        placement, for data-placement-only runs à la Section 4.5).

        The placement search itself is delegated to
        :mod:`repro.core.search` — this method only prepares the request
        (hotness, capacities, tier fractions) and post-processes the
        winner into DDAK bins; the DDAK data placement itself runs on
        the first read of :attr:`MomentPlan.data_placement`.

        Search time comes from the ``optimizer.optimize`` obs span —
        :attr:`MomentPlan.optimize_seconds` is its duration (spans
        measure even with telemetry disabled).
        """
        cfg = self.config
        with obs.span(
            "optimizer.optimize",
            machine=self.machine.name,
            gpus=self.num_gpus,
            ssds=self.num_ssds,
            dataset=dataset.spec.key,
        ) as root:
            if hotness is None:
                with obs.span("optimizer.hotness"):
                    hotness = self.estimate_hotness(dataset)
            fractions, plan = self.plan_fractions(dataset, hotness)
            result = run_search(self.search_request(fractions, candidates))
            obs.add("optimizer.candidates", result.num_candidates)
            obs.add("optimizer.unique", result.num_unique)
            best = result.best
            bins = make_bins(
                result.topology,
                gpu_cache_bytes=plan.gpu_cache_bytes,
                cpu_cache_bytes=plan.cpu_cache_bytes,
                ssd_capacity_bytes=plan.ssd_capacity_bytes,
                traffic=best.prediction.storage_rate,
                gpu_cache_policy=cfg.gpu_cache_policy,
            )
            root.set(throughput=best.throughput)
        obs.observe("optimizer.optimize_seconds", root.duration)
        return MomentPlan(
            placement=best.placement,
            topology=result.topology,
            prediction=best.prediction,
            fractions=fractions,
            hotness=hotness,
            bins=bins,
            feature_bytes=dataset.feature_bytes,
            scored=result.scored,
            num_candidates=result.num_candidates,
            num_unique=result.num_unique,
            optimize_seconds=root.duration,
            mcf=best.mcf,
            search=result,
            nvlink_pairs=cfg.nvlink_pairs,
        )
