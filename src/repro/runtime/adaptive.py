"""Online profiling and adaptive data placement (paper Section 5,
"Limitations").

Moment targets static workloads: hotness is pre-sampled once and DDAK
runs offline.  The paper notes that dynamic settings "require runtime
monitoring and frequent embedding reallocation" and announces
"lightweight online profiling and adaptive placement" as future work.
This module implements that plan:

* :class:`OnlineHotnessTracker` — exponentially-weighted per-vertex
  access counters updated from every sampled batch (O(batch) work, the
  "lightweight" part);
* :class:`AdaptivePlacementManager` — watches the realised cache-hit
  rate; when it decays below a fraction of its best observed value, it
  re-runs DDAK on the *tracked* hotness and charges a migration cost
  (bytes that change bins, pushed at a bounded background bandwidth);
* :class:`DriftingWorkload` — a workload whose training-seed
  distribution rotates through the vertex space, the canonical
  recommendation/streaming drift pattern;
* :func:`simulate_adaptive` — epochs of drift under static vs adaptive
  placement, returning the throughput trajectories the ablation bench
  plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.ddak import Bin, DataPlacement, ddak_place
from repro.graphs.csr import sorted_unique
from repro.graphs.datasets import ScaledDataset
from repro.hardware.machines import MachineSpec
from repro.core.topology import Topology
from repro.simulator.pipeline import EpochResult, EpochSimulator, SimConfig
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_fraction, check_positive


class OnlineHotnessTracker:
    """EWMA access counters over vertices.

    ``decay`` is the per-epoch retention: 1.0 never forgets (converges
    to the static pre-sampled counts), lower values track drift faster
    at the cost of noisier estimates.
    """

    def __init__(
        self, num_vertices: int, decay: float = 0.6, floor: float = 1e-3
    ) -> None:
        check_fraction("decay", decay)
        if num_vertices < 1:
            raise ValueError("num_vertices must be >= 1")
        self.decay = decay
        self.floor = floor
        self.counts = np.zeros(num_vertices, dtype=np.float64)

    def observe_batch(
        self, unique_vertices: np.ndarray, weight: float = 1.0
    ) -> None:
        """Record one sampled mini-batch's feature accesses.

        ``weight`` lets a sampled subset of batches stand in for a full
        epoch (observe k of n batches with weight n/k).
        """
        self.counts[unique_vertices] += weight

    def end_epoch(self) -> None:
        """Apply the per-epoch exponential decay."""
        self.counts *= self.decay

    @property
    def hotness(self) -> np.ndarray:
        """Current estimate (floored so cold vertices still rank)."""
        return self.counts + self.floor


def _bin_name_of(placement: DataPlacement) -> np.ndarray:
    """Per-vertex bin *names* — the stable identity for counting moved
    vertices across two placements (bin indices only align when both
    placements share one bin list)."""
    names = np.array([b.name for b in placement.bins])
    return names[placement.bin_of]


@dataclass
class MigrationEvent:
    """One re-placement: when, how much moved, what it cost."""

    epoch: int
    moved_vertices: int
    moved_bytes: float
    seconds: float


@dataclass
class AdaptivePlacementManager:
    """Re-places data when the observed hit rate degrades.

    ``trigger_ratio`` — re-place when the epoch's local-hit fraction
    falls below this fraction of the best hit rate seen so far.
    ``migration_bw`` — background bandwidth available for shuffling
    embeddings between bins (reads+writes overlap training, so this is
    deliberately far below fabric speed).
    """

    bins: Sequence[Bin]
    feature_bytes: int
    pool_size: int = 100
    trigger_ratio: float = 0.85
    migration_bw: float = 4e9
    best_hit_rate: float = 0.0
    events: List[MigrationEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        check_fraction("trigger_ratio", self.trigger_ratio)
        check_positive("migration_bw", self.migration_bw)

    def should_replace(self, hit_rate: float) -> bool:
        """Update the watermark and decide whether to re-place."""
        if hit_rate > self.best_hit_rate:
            self.best_hit_rate = hit_rate
            return False
        return hit_rate < self.best_hit_rate * self.trigger_ratio

    def replace(
        self,
        epoch: int,
        current: DataPlacement,
        tracked_hotness: np.ndarray,
        bins: Optional[Sequence[Bin]] = None,
    ) -> Tuple[DataPlacement, MigrationEvent]:
        """Re-run DDAK on tracked hotness; charge the movement cost.

        ``bins`` re-targets the knapsack at a *different* bin list (the
        fault-replanning path, where failed bins disappeared): movement
        is then counted by comparing each vertex's bin *name* — indices
        are meaningless across bin lists — and the manager adopts the
        new bins for subsequent replacements.
        """
        if bins is not None:
            self.bins = list(bins)
        new = ddak_place(
            self.bins,
            tracked_hotness,
            self.feature_bytes,
            pool_size=self.pool_size,
        )
        moved = int(
            np.count_nonzero(_bin_name_of(new) != _bin_name_of(current))
        )
        moved_bytes = moved * float(self.feature_bytes)
        event = MigrationEvent(
            epoch=epoch,
            moved_vertices=moved,
            moved_bytes=moved_bytes,
            seconds=moved_bytes / self.migration_bw,
        )
        self.events.append(event)
        # new regime: reset the watermark so recovery re-arms the trigger
        self.best_hit_rate = 0.0
        return new, event


@dataclass
class DriftingWorkload:
    """Training seeds drift through the vertex space.

    Epoch ``e`` trains on a contiguous window of vertex ids starting at
    ``e * drift_fraction * V`` — on a community graph
    (:func:`repro.graphs.generators.community_graph`, where communities
    are contiguous id ranges) this is the "active region slides over
    time" pattern: each epoch heats a different community's hubs.
    ``drift_fraction=0`` is the static case.
    """

    dataset: ScaledDataset
    drift_fraction: float = 0.15
    seed: SeedLike = 0

    def __post_init__(self) -> None:
        check_fraction("drift_fraction", self.drift_fraction)
        self._window = self.dataset.train_ids.size

    def train_ids(self, epoch: int) -> np.ndarray:
        """Training-seed ids for epoch ``epoch``."""
        n = self.dataset.graph.num_vertices
        start = int(epoch * self.drift_fraction * n) % n
        idx = (np.arange(self._window) + start) % n
        return sorted_unique(idx.astype(np.int64))

    def dataset_at(self, epoch: int) -> ScaledDataset:
        """The dataset with epoch-``e``'s training window."""
        import dataclasses

        return dataclasses.replace(
            self.dataset, train_ids=self.train_ids(epoch)
        )


@dataclass
class AdaptiveRunResult:
    """Throughput trajectories of a drift simulation."""

    #: per-epoch trained seeds/s under the static initial placement
    static_seeds_per_s: List[float]
    #: per-epoch seeds/s with adaptive re-placement (migration charged)
    adaptive_seeds_per_s: List[float]
    events: List[MigrationEvent]

    @property
    def static_mean(self) -> float:
        """Mean throughput of the static arm (seeds/s)."""
        return float(np.mean(self.static_seeds_per_s))

    @property
    def adaptive_mean(self) -> float:
        """Mean throughput of the adaptive arm (seeds/s)."""
        return float(np.mean(self.adaptive_seeds_per_s))

    @property
    def adaptive_gain(self) -> float:
        """Mean-throughput improvement of adaptive over static."""
        return self.adaptive_mean / max(self.static_mean, 1e-12) - 1.0


def _hit_rate(result: EpochResult) -> float:
    total = result.local_bytes + result.external_bytes
    return result.local_bytes / total if total > 0 else 0.0


def simulate_adaptive(
    topo: Topology,
    machine: MachineSpec,
    workload: DriftingWorkload,
    bins: Sequence[Bin],
    initial_hotness: np.ndarray,
    num_epochs: int = 6,
    sim: Optional[SimConfig] = None,
    tracker_decay: float = 0.5,
    pool_size: int = 100,
) -> AdaptiveRunResult:
    """Run ``num_epochs`` of drift under static vs adaptive placement.

    Both runs start from the same DDAK placement built on
    ``initial_hotness`` (epoch-0 knowledge).  The adaptive run updates
    an :class:`OnlineHotnessTracker` from the simulator's per-epoch
    demand, re-places when the hit rate decays, and pays the migration
    time out of its throughput.
    """
    sim = sim or SimConfig(sample_batches=4)
    ds0 = workload.dataset
    feature_bytes = ds0.feature_bytes
    placement0 = ddak_place(
        bins, initial_hotness, feature_bytes, pool_size=pool_size
    )

    # --- static arm ----------------------------------------------------
    static_tp: List[float] = []
    for epoch in range(num_epochs):
        ds_e = workload.dataset_at(epoch)
        result = EpochSimulator(topo, machine, ds_e, placement0, sim).run_epoch()
        static_tp.append(result.seeds_per_s)

    # --- adaptive arm ---------------------------------------------------
    tracker = OnlineHotnessTracker(
        ds0.graph.num_vertices, decay=tracker_decay
    )
    tracker.counts = np.asarray(initial_hotness, dtype=np.float64).copy()
    manager = AdaptivePlacementManager(
        bins, feature_bytes, pool_size=pool_size
    )
    placement = placement0
    adaptive_tp: List[float] = []
    from repro.sampling.batching import take_batches
    from repro.sampling.neighbor import sample_batch

    rng = ensure_rng(workload.seed)
    for epoch in range(num_epochs):
        ds_e = workload.dataset_at(epoch)
        result = EpochSimulator(topo, machine, ds_e, placement, sim).run_epoch()
        # online profiling: observe a sampled subset of the epoch's
        # batches, weighted up to full-epoch magnitude
        k = min(12, ds_e.num_batches)
        weight = ds_e.num_batches / k
        for seeds in take_batches(ds_e.train_ids, ds_e.batch_size, k, seed=rng):
            s = sample_batch(ds_e.graph, seeds, sim.fanouts, seed=rng)
            tracker.observe_batch(s.unique_vertices, weight=weight)
        tracker.end_epoch()

        seconds = result.epoch_seconds
        hit = _hit_rate(result)
        if manager.should_replace(hit):
            placement, event = manager.replace(epoch, placement, tracker.hotness)
            seconds += event.seconds
        paper_train = ds_e.train_ids.size * ds_e.scale
        adaptive_tp.append(paper_train / max(seconds, 1e-12))

    return AdaptiveRunResult(
        static_seeds_per_s=static_tp,
        adaptive_seeds_per_s=adaptive_tp,
        events=manager.events,
    )
