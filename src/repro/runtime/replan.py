"""Degradation-aware replanning (ROADMAP: graceful degradation).

A :class:`ReplanPolicy` rides the epoch simulator's ``on_step`` hook.
Each step it compares the realised step time against the healthy
baseline; when a new fault has degraded the fabric it re-runs the
placement machinery on the *surviving* topology:

1. the search engine re-scores the current hardware placement against
   the fault injector's :class:`~repro.core.topology.TopologyMask`
   (hardware cannot be re-cabled mid-run, so the candidate set is just
   the running placement — what the search contributes is the degraded
   fabric's optimal per-storage-node traffic targets);
2. DDAK re-places data over the surviving bins with those targets
   (:meth:`AdaptivePlacementManager.replace`, name-aware across the two
   bin lists);
3. the migration bytes are charged at a bounded background bandwidth —
   returned from the hook as extra seconds on the triggering step.

Only capacity-affecting faults (drive failures/slowdowns, link
degradations) trigger a replan: a pure ``GpuEvict`` leaves the fabric
intact and data placement cannot restore evicted HBM.

Observability: ``replan.migrated_bytes``/``replan.events`` counters and
a ``replan.time_to_recover_s`` gauge (simulated seconds from the first
fault onset until a step lands back within ``recover_ratio`` of the
healthy step time).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.ddak import make_bins
from repro.core.optimizer import CapacityPlan
from repro.core.search import SearchRequest, run_search
from repro.core.topology import TopologyMask
from repro.runtime.adaptive import AdaptivePlacementManager
from repro.utils.validation import check_fraction, check_positive


@dataclass(frozen=True)
class ReplanConfig:
    """Knobs of the degradation-aware replanner."""

    #: Background bandwidth migrations are charged at (bytes/s) —
    #: deliberately far below fabric speed, migration overlaps training.
    migration_bw: float = 4e9
    #: A step counts as degraded when throughput falls below this
    #: fraction of the healthy baseline (step time grows by 1/ratio).
    trigger_ratio: float = 0.9
    #: Recovery target: recovered when a step's throughput is back to at
    #: least this fraction of healthy.
    recover_ratio: float = 0.8
    #: Safety valve on replans per epoch (each one reruns search+DDAK).
    max_replans: int = 4
    #: DDAK pooling factor for the re-placement.
    pool_size: int = 100

    def __post_init__(self) -> None:
        check_positive("migration_bw", self.migration_bw)
        check_fraction("trigger_ratio", self.trigger_ratio)
        check_fraction("recover_ratio", self.recover_ratio)
        check_positive("max_replans", self.max_replans)
        check_positive("pool_size", self.pool_size)


@dataclass
class ReplanEvent:
    """One replan: when, what triggered it, what it cost."""

    step: int
    faults: Tuple[str, ...]
    moved_vertices: int
    moved_bytes: float
    seconds: float
    #: Degraded-fabric predicted throughput that sized the new targets.
    predicted_throughput: float


@dataclass
class ReplanReport:
    """What the policy observed and did over one epoch."""

    events: List[ReplanEvent] = field(default_factory=list)
    #: Mean pre-fault step time (the recovery yardstick), seconds.
    healthy_step_s: Optional[float] = None
    #: Simulated seconds from first fault onset to the first recovered
    #: step (None if never degraded or never recovered).
    time_to_recover_s: Optional[float] = None
    recovered: bool = False

    @property
    def migrated_bytes(self) -> float:
        """Total bytes shuffled across all replans."""
        return sum(e.moved_bytes for e in self.events)


class ReplanPolicy:
    """``on_step`` hook that re-places data on the surviving topology.

    Parameters
    ----------
    sim:
        The running :class:`~repro.simulator.pipeline.EpochSimulator`
        (must carry a fault injector).
    placement:
        The hardware placement the system runs on (re-scored, not
        changed: drives cannot be re-slotted mid-run).
    hotness:
        Per-vertex hotness DDAK re-places with.
    cap_plan:
        Tier cache budgets (dataset scale) for rebuilding bins.
    fractions:
        (GPU, CPU, SSD) traffic fractions for the masked search demand.
    """

    def __init__(
        self,
        sim,
        placement,
        hotness: np.ndarray,
        cap_plan: CapacityPlan,
        fractions: Tuple[float, float, float],
        config: Optional[ReplanConfig] = None,
        nvlink_pairs=None,
        gpu_cache_policy: str = "replicated",
    ) -> None:
        if sim.injector is None:
            raise ValueError("ReplanPolicy needs a fault-injected simulator")
        self.sim = sim
        self.placement = placement
        self.hotness = np.asarray(hotness, dtype=np.float64)
        self.cap_plan = cap_plan
        self.fractions = fractions
        self.config = config or ReplanConfig()
        self.nvlink_pairs = nvlink_pairs
        self.gpu_cache_policy = gpu_cache_policy
        self.report = ReplanReport()
        self.manager = AdaptivePlacementManager(
            bins=list(sim.placement.bins),
            feature_bytes=sim.dataset.feature_bytes,
            pool_size=self.config.pool_size,
            migration_bw=self.config.migration_bw,
        )
        self._planned_mask: Optional[TopologyMask] = None
        self._healthy_sum = 0.0
        self._healthy_n = 0
        self._fault_clock: Optional[float] = None

    # ------------------------------------------------------------------
    def on_step(self, step: int, step_time: float, stages: Dict) -> float:
        """The ``run_epoch`` hook; returns migration seconds to charge."""
        view = self.sim.injector.view(step)
        cfg = self.config
        if not view.is_degraded:
            self._healthy_sum += step_time
            self._healthy_n += 1
            return 0.0
        if self._fault_clock is None:
            self._fault_clock = 0.0
        healthy = self.healthy_step_s
        degraded = (
            healthy is None or step_time > healthy / max(cfg.trigger_ratio, 1e-9)
        )
        extra = 0.0
        mask = self.sim.injector.mask_at(step)
        if (
            degraded
            and mask
            and mask != self._planned_mask
            and len(self.report.events) < cfg.max_replans
        ):
            extra = self._replan(step, view, mask)
        if not self.report.recovered:
            self._fault_clock += step_time + extra
            if healthy is not None and step_time + extra <= healthy / max(
                cfg.recover_ratio, 1e-9
            ):
                self.report.recovered = True
                self.report.time_to_recover_s = self._fault_clock
                obs.set_gauge("replan.time_to_recover_s", self._fault_clock)
        return extra

    @property
    def healthy_step_s(self) -> Optional[float]:
        """Mean pre-fault step time, or None if faults hit at step 0."""
        if self._healthy_n == 0:
            return None
        healthy = self._healthy_sum / self._healthy_n
        self.report.healthy_step_s = healthy
        return healthy

    # ------------------------------------------------------------------
    def _replan(self, step: int, view, mask: TopologyMask) -> float:
        """Search the masked fabric, re-DDAK, swap the placement in."""
        with obs.span(
            "replan.run", step=step, faults=len(view.active)
        ) as sp:
            # one candidate cannot be split across workers: a pool
            # would only add its start-up time
            request = SearchRequest(
                machine=self.sim.machine,
                num_gpus=self.placement.num_gpus,
                num_ssds=self.placement.num_ssds,
                fractions=self.fractions,
                gpu_cache_policy=self.gpu_cache_policy,
                nvlink_pairs=(
                    tuple(self.nvlink_pairs) if self.nvlink_pairs else None
                ),
                workers=1,
                candidates=(self.placement,),
                mask=mask,
            )
            search = run_search(request)
            # the surviving fabric, as the search scored it
            bins = make_bins(
                search.topology,
                gpu_cache_bytes=self.cap_plan.gpu_cache_bytes,
                cpu_cache_bytes=self.cap_plan.cpu_cache_bytes,
                ssd_capacity_bytes=self.cap_plan.ssd_capacity_bytes,
                traffic=search.best.prediction.storage_rate,
                gpu_cache_policy=self.gpu_cache_policy,
            )
            new_placement, migration = self.manager.replace(
                step, self.sim.placement, self.hotness, bins=bins
            )
            self.sim.set_placement(new_placement)
            self._planned_mask = mask
            event = ReplanEvent(
                step=step,
                faults=tuple(f.describe() for f in view.active),
                moved_vertices=migration.moved_vertices,
                moved_bytes=migration.moved_bytes,
                seconds=migration.seconds,
                predicted_throughput=search.best.throughput,
            )
            self.report.events.append(event)
            obs.add("replan.events", 1)
            obs.add("replan.migrated_bytes", migration.moved_bytes)
            sp.set(
                moved_bytes=migration.moved_bytes,
                migration_seconds=migration.seconds,
            )
        return migration.seconds
