"""Step-by-step fault injection against a runtime topology.

:class:`FaultInjector` turns a :class:`~repro.faults.schedule.FaultSchedule`
into per-step :class:`FaultView` objects the epoch simulator consumes:
a degraded copy of the fair-share capacity dict, the set of failed
drives (whose reads must re-route to the surviving replica tier), and
per-GPU cache-eviction fractions.

Degradation semantics per fault class:

* ``SsdFailure`` — the drive's egress resource is *removed* (the
  max-min allocator requires strictly positive capacities; a dead
  resource must disappear, not go to zero) and a synthetic
  ``("recovery", ssd)`` resource with ``recovery_bw`` capacity is
  added: until a replan migrates the drive's pages, they are served
  from the surviving replica tier (host-side origin copy) through that
  bounded recovery path.
* ``SsdSlowdown`` — the drive's (IOPS-capped) egress capacity scales
  by ``factor``.
* ``LinkDegrade`` — both directed ``("link", src, dst)`` resources
  scale by ``factor``.
* ``GpuEvict`` — no capacity change; the view carries the per-GPU
  evicted fraction and the simulator turns that share of local cache
  hits into CPU-memory reads.

Views are cached per active-fault signature, so a long run with a
static fault set builds the degraded capacity dict once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, Tuple

from repro.core.topology import Topology, TopologyMask
from repro.faults.models import (
    Fault,
    GpuEvict,
    LinkDegrade,
    SsdFailure,
    SsdSlowdown,
)
from repro.faults.schedule import FaultSchedule
from repro.simulator.bandwidth import degrade_capacities
from repro.simulator.routing import egress_key, link_key
from repro.utils.validation import check_positive

#: Bandwidth of the degraded recovery path serving a failed drive's
#: pages from the surviving replica tier (host-side origin copy).  Far
#: below a healthy NVMe drive on purpose: without replanning, training
#: throughput collapses onto this bottleneck.
RECOVERY_BW = 1.5e9


def recovery_key(ssd: str) -> Tuple[str, str]:
    """Resource key of a failed drive's replica-recovery path."""
    return ("recovery", ssd)


@dataclass
class FaultView:
    """Everything the simulator needs to know about one step's faults."""

    step: int
    #: All faults in effect this step (schedule order).
    active: Tuple[Fault, ...]
    #: Faults whose onset is exactly this step (detection events —
    #: these are what incur the retry/timeout stall).
    activated: Tuple[Fault, ...]
    #: Degraded capacity dict (failed egress removed, recovery added).
    capacities: Dict[Hashable, float]
    #: Drives that are hard-failed this step.
    failed_ssds: FrozenSet[str] = frozenset()
    #: gpu name -> evicted fraction of its embedding cache.
    evict_fraction: Dict[str, float] = field(default_factory=dict)

    @property
    def is_degraded(self) -> bool:
        """Whether anything is actually degraded this step."""
        return bool(self.active)


class FaultInjector:
    """Maps schedule steps to degraded capacity views for one topology."""

    def __init__(
        self,
        topo: Topology,
        schedule: FaultSchedule,
        base_capacities: Dict[Hashable, float],
        recovery_bw: float = RECOVERY_BW,
    ) -> None:
        check_positive("recovery_bw", recovery_bw)
        self.topo = topo
        self.schedule = schedule
        self.base_capacities = dict(base_capacities)
        self.recovery_bw = recovery_bw
        self._validate_targets()
        self._views: Dict[Tuple, FaultView] = {}

    def _validate_targets(self) -> None:
        ssds = set(self.topo.ssds())
        gpus = set(self.topo.gpus())
        for f in self.schedule:
            if isinstance(f, (SsdFailure, SsdSlowdown)):
                if f.ssd not in ssds:
                    raise ValueError(
                        f"{f.kind} targets unknown drive {f.ssd!r}; "
                        f"topology has {sorted(ssds)}"
                    )
            elif isinstance(f, LinkDegrade):
                if not self.topo.has_link(f.src, f.dst):
                    raise ValueError(
                        f"link_degrade targets unknown link "
                        f"{f.src!r}->{f.dst!r}"
                    )
            elif isinstance(f, GpuEvict):
                if f.gpu not in gpus:
                    raise ValueError(
                        f"gpu_evict targets unknown GPU {f.gpu!r}; "
                        f"topology has {sorted(gpus)}"
                    )

    # ------------------------------------------------------------------
    def view(self, step: int) -> FaultView:
        """The fault view for simulated ``step`` (cached per signature)."""
        active = self.schedule.active_at(step)
        activated = tuple(
            f for f in self.schedule.activated_at(step) if f in active
        )
        key = (active, bool(activated))
        cached = self._views.get(key)
        if cached is not None and cached.activated == activated:
            # same degradation signature: reuse the capacity dict, fix
            # up the step index for reporting
            return FaultView(
                step=step,
                active=active,
                activated=activated,
                capacities=cached.capacities,
                failed_ssds=cached.failed_ssds,
                evict_fraction=cached.evict_fraction,
            )
        built = self._build_view(step, active, activated)
        self._views[key] = built
        return built

    def _build_view(
        self,
        step: int,
        active: Tuple[Fault, ...],
        activated: Tuple[Fault, ...],
    ) -> FaultView:
        scale: Dict[Hashable, float] = {}
        drop = []
        add: Dict[Hashable, float] = {}
        failed = set()
        evict: Dict[str, float] = {}
        for f in active:
            if isinstance(f, SsdFailure):
                failed.add(f.ssd)
                drop.append(egress_key(f.ssd))
                add[recovery_key(f.ssd)] = self.recovery_bw
            elif isinstance(f, SsdSlowdown):
                k = egress_key(f.ssd)
                scale[k] = scale.get(k, 1.0) * f.factor
            elif isinstance(f, LinkDegrade):
                for src, dst in f.directed_keys:
                    if (
                        link_key(src, dst) in self.base_capacities
                    ):
                        k = link_key(src, dst)
                        scale[k] = scale.get(k, 1.0) * f.factor
            elif isinstance(f, GpuEvict):
                evict[f.gpu] = max(evict.get(f.gpu, 0.0), f.fraction)
        capacities = degrade_capacities(
            self.base_capacities, scale=scale, drop=drop, add=add
        )
        return FaultView(
            step=step,
            active=active,
            activated=activated,
            capacities=capacities,
            failed_ssds=frozenset(failed),
            evict_fraction=evict,
        )

    # ------------------------------------------------------------------
    def mask_at(self, step: int) -> TopologyMask:
        """The :class:`~repro.core.topology.TopologyMask` describing the
        surviving fabric at ``step`` — the replan policy re-runs the
        placement search against this mask.
        """
        active = self.schedule.active_at(step)
        drop = []
        egress = []
        links = []
        for f in active:
            if isinstance(f, SsdFailure):
                drop.append(f.ssd)
            elif isinstance(f, SsdSlowdown):
                egress.append((f.ssd, f.factor))
            elif isinstance(f, LinkDegrade):
                for src, dst in f.directed_keys:
                    links.append((src, dst, f.factor))
        return TopologyMask(
            drop_nodes=tuple(sorted(set(drop))),
            egress_factors=tuple(sorted(egress)),
            link_factors=tuple(sorted(links)),
        )
