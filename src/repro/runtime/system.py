"""End-to-end system runners: Moment and the shared machinery baselines
reuse (memory budgeting, placement, epoch simulation).

A :class:`GnnSystem` owns the full recipe of one trainable system on a
single machine: how it budgets GPU/CPU memory (paper-scale, so the OOM
verdicts match the paper's), how it places data (DDAK vs hash), whether
its I/O stack shares drives or binds them per GPU, and which hardware
placement it runs on.  :meth:`GnnSystem.run` returns a
:class:`SystemResult` — either a simulated epoch or a recorded OOM.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.ddak import DataPlacement, ddak_place, hash_place, make_bins
from repro.core.optimizer import (
    CapacityPlan,
    MomentOptimizer,
    MomentPlan,
    OptimizerConfig,
    capacity_plan,
    tier_fractions,
)
from repro.core.placement import Placement
from repro.core.search import SearchResult
from repro.core.topology import Topology
from repro.graphs.datasets import ScaledDataset
from repro.hardware.fabric import fabric_summary
from repro.hardware.machines import MachineSpec
from repro.simulator.binding import static_ssd_binding
from repro.simulator.iostack import IoStackConfig
from repro.simulator.memory import (
    MemoryLedger,
    OutOfMemoryError,
    activation_bytes,
    bam_page_cache_metadata_bytes,
    io_buffer_bytes,
)
from repro.simulator.pipeline import EpochResult, EpochSimulator, SimConfig
from repro.simulator.routing import reconcile_storage_rates
from repro.simulator.traffic import TrafficAccount
from repro.core.flowmodel import TrafficDemand
from repro.runtime.replan import ReplanPolicy
from repro.runtime.spec import RunSpec, require_run_spec
from repro.utils.rng import SeedLike
from repro.utils.units import GiB

#: Versioned schema tag for :meth:`SystemResult.to_dict` records.
RUN_RECORD_SCHEMA = "repro.run/v1"


@dataclass
class SystemResult:
    """Outcome of running one system configuration."""

    system: str
    machine: str
    dataset: str
    model: str
    num_gpus: int
    epoch: Optional[EpochResult] = None
    oom: Optional[str] = None
    plan: Optional[MomentPlan] = None
    placement: Optional[Placement] = None
    data_placement: Optional[DataPlacement] = None
    #: Placement-search outcome (candidate and LP-scored counts) when the
    #: system ran the search engine (None for fixed-layout baselines).
    search: Optional[SearchResult] = None
    #: Spans + metric deltas recorded during this run (None when
    #: telemetry was disabled); see :class:`repro.obs.RunScope`.
    telemetry: Optional[Dict] = None
    #: What the replan policy observed/did (None unless the run had a
    #: fault schedule and replanning enabled).
    replan: Optional[object] = None
    #: Workload seed the run actually used (None when the system was
    #: seeded with a live Generator — not recordable).
    seed: Optional[int] = None
    #: Repetition index from the spec (0 = canonical run).
    repetition: int = 0
    #: Fabric shape summary (name, chassis fingerprint, node/link/tier
    #: counts, generator seed) from
    #: :func:`repro.hardware.fabric.fabric_summary`; None for OOM runs
    #: that never built a topology.
    fabric: Optional[Dict] = None

    @property
    def ok(self) -> bool:
        """Whether the run produced an epoch (no OOM)."""
        return self.epoch is not None

    @property
    def paper_epoch_seconds(self) -> float:
        """Paper-frame epoch time (NaN if the system OOMed)."""
        if not self.ok:
            return float("nan")
        return self.epoch.paper_epoch_seconds

    @property
    def seeds_per_s(self) -> float:
        """Trained seed vertices per second (0 if OOMed)."""
        if not self.ok:
            return 0.0
        return self.epoch.seeds_per_s

    def __repr__(self) -> str:
        if self.oom:
            tail = f"OOM: {self.oom.splitlines()[0]}"
        else:
            tail = f"epoch={self.paper_epoch_seconds:.2f}s (paper scale)"
        return (
            f"SystemResult({self.system} on {self.machine}/{self.dataset}/"
            f"{self.model} x{self.num_gpus}gpu: {tail})"
        )

    # -- serialization (schema ``repro.run/v1``) -------------------------
    def to_dict(self) -> Dict:
        """JSON-serializable record of this run (schema
        :data:`RUN_RECORD_SCHEMA`).

        Carries the scalar outcome: identity fields, seed/repetition
        provenance, the epoch's timings/throughput/trajectory, the
        replan report, and — when the run executed under telemetry —
        the scoped spans + metric deltas (already JSON-ready, see
        :class:`repro.obs.RunScope`).  Rich in-memory objects (plan,
        data placement, per-link traffic, demand matrix) are
        intentionally *not* serialized — re-run for those.  The CLI
        ``--json-out``, the benchmarks and the fault bench all emit
        this shape.
        """
        epoch = None
        if self.epoch is not None:
            e = self.epoch
            epoch = {
                "epoch_seconds": float(e.epoch_seconds),
                "paper_epoch_seconds": float(e.paper_epoch_seconds),
                "num_steps": int(e.num_steps),
                "io_seconds": float(e.io_seconds),
                "sample_seconds": float(e.sample_seconds),
                "compute_seconds": float(e.compute_seconds),
                "sync_seconds": float(e.sync_seconds),
                "throughput_bytes_per_s": float(e.throughput_bytes_per_s),
                "seeds_per_s": float(e.seeds_per_s),
                "local_bytes": float(e.local_bytes),
                "external_bytes": float(e.external_bytes),
                "per_gpu_inlet": {
                    g: float(v) for g, v in e.per_gpu_inlet.items()
                },
                "step_seconds": [float(s) for s in e.step_seconds],
            }
        replan = None
        if self.replan is not None:
            r = self.replan
            replan = {
                "recovered": bool(r.recovered),
                "healthy_step_s": (
                    None
                    if r.healthy_step_s is None
                    else float(r.healthy_step_s)
                ),
                "time_to_recover_s": (
                    None
                    if r.time_to_recover_s is None
                    else float(r.time_to_recover_s)
                ),
                "migrated_bytes": float(r.migrated_bytes),
                "events": [
                    {
                        "step": int(ev.step),
                        "faults": list(ev.faults),
                        "moved_vertices": int(ev.moved_vertices),
                        "moved_bytes": float(ev.moved_bytes),
                        "seconds": float(ev.seconds),
                    }
                    for ev in r.events
                ],
            }
        return {
            "schema": RUN_RECORD_SCHEMA,
            "system": self.system,
            "machine": self.machine,
            "dataset": self.dataset,
            "model": self.model,
            "num_gpus": int(self.num_gpus),
            "seed": self.seed,
            "repetition": int(self.repetition),
            "ok": self.ok,
            "oom": self.oom,
            "fabric": self.fabric,
            "telemetry": self.telemetry,
            "placement": (
                list(self.placement.as_tuple())
                if self.placement is not None
                else None
            ),
            "epoch": epoch,
            "replan": replan,
        }

    @classmethod
    def from_dict(cls, record: Dict) -> "SystemResult":
        """Rebuild a result from a :meth:`to_dict` record.

        The epoch comes back with empty ``traffic``/``demand`` (those
        are not serialized); ``plan``/``placement``/``data_placement``/
        ``search`` are ``None``; ``replan`` is the plain record dict
        (not a :class:`~repro.runtime.replan.ReplanReport`) and
        ``telemetry`` the plain spans+metrics payload (round-tripped
        verbatim; None for pre-telemetry records).
        """
        schema = record.get("schema")
        if schema != RUN_RECORD_SCHEMA:
            raise ValueError(
                f"unsupported run record schema {schema!r}; "
                f"expected {RUN_RECORD_SCHEMA!r}"
            )
        epoch = None
        if record.get("epoch") is not None:
            e = record["epoch"]
            epoch = EpochResult(
                epoch_seconds=e["epoch_seconds"],
                paper_epoch_seconds=e["paper_epoch_seconds"],
                num_steps=e["num_steps"],
                io_seconds=e["io_seconds"],
                sample_seconds=e["sample_seconds"],
                compute_seconds=e["compute_seconds"],
                sync_seconds=e["sync_seconds"],
                throughput_bytes_per_s=e["throughput_bytes_per_s"],
                seeds_per_s=e["seeds_per_s"],
                per_gpu_inlet=dict(e["per_gpu_inlet"]),
                local_bytes=e["local_bytes"],
                external_bytes=e["external_bytes"],
                traffic=TrafficAccount(Topology("deserialized")),
                demand=TrafficDemand(),
                step_seconds=list(e.get("step_seconds", [])),
            )
        return cls(
            system=record["system"],
            machine=record["machine"],
            dataset=record["dataset"],
            model=record["model"],
            num_gpus=record["num_gpus"],
            epoch=epoch,
            oom=record.get("oom"),
            replan=record.get("replan"),
            telemetry=record.get("telemetry"),
            seed=record.get("seed"),
            repetition=int(record.get("repetition", 0)),
            fabric=record.get("fabric"),
        )


def gpu_memory_budget(
    machine: MachineSpec,
    dataset: ScaledDataset,
    model_name: str,
    num_gpus: int,
    io: IoStackConfig,
    extra: Optional[Dict[str, float]] = None,
) -> MemoryLedger:
    """Paper-scale HBM ledger for one GPU of a training system.

    Reserves model+optimizer state, activations for a paper-scale batch,
    pinned I/O buffers, and any system-specific ``extra`` entries (e.g.
    M-GIDS's page-cache metadata).  What remains is available as an
    embedding cache.  Raises :class:`OutOfMemoryError` when the fixed
    reservations alone exceed HBM.
    """
    spec = dataset.spec
    ledger = MemoryLedger(f"{machine.gpu.name}", machine.gpu.hbm_bytes)
    hidden = 256 if model_name == "graphsage" else 64 * 8
    # ~1.6M unique vertices per paper-scale batch (8000 seeds, [25,10])
    batch_nodes = int(spec.batch_size * 200)
    ledger.reserve("model+optimizer", 64e6)
    ledger.reserve(
        "activations", activation_bytes(batch_nodes, hidden, num_layers=2)
    )
    ledger.reserve(
        "io_buffers",
        io_buffer_bytes(io.num_queue_pairs, io.queue_depth, io.page_bytes),
    )
    for label, nbytes in (extra or {}).items():
        ledger.reserve(label, nbytes)
    return ledger


def _pair_key(pairs) -> Tuple[Tuple[int, int], ...]:
    """NVLink pairs as a comparable tuple (None and empty both mean none)."""
    return tuple(tuple(pair) for pair in pairs or ())


class GnnSystem:
    """Base recipe for a single-machine multi-GPU out-of-core system.

    Subclasses override the class attributes / hooks:

    * :attr:`name` — report label;
    * :attr:`shares_ssds` — False installs a static per-GPU drive
      binding (M-GIDS/M-Hyperion);
    * :meth:`extra_gpu_reservations` — per-GPU HBM costs beyond the
      common ones (page-cache metadata, ...);
    * :meth:`place_data` — DDAK (Moment) or hash (baselines).
    """

    name = "base"
    shares_ssds = True
    #: External-read multiplier (no cross-hop dedup, page over-fetch).
    io_amplification = 1.0
    #: Fraction of the HBM cache budget the system uses *effectively*
    #: (dynamic page caches thrash relative to an optimal hot set).
    gpu_cache_efficiency = 1.0
    #: How per-GPU caches share hot vertices (see :func:`make_bins`).
    gpu_cache_policy = "replicated"

    def __init__(
        self,
        machine: MachineSpec,
        gpu_cache_fraction: float = 0.6,
        cpu_cache_vertex_fraction: float = 0.01,
        seed: SeedLike = 0,
    ) -> None:
        self.machine = machine
        self.gpu_cache_fraction = gpu_cache_fraction
        self.cpu_cache_vertex_fraction = cpu_cache_vertex_fraction
        self.seed = seed

    # -- hooks -----------------------------------------------------------
    def extra_gpu_reservations(
        self, dataset: ScaledDataset, num_gpus: int
    ) -> Dict[str, float]:
        """System-specific per-GPU HBM costs (label -> bytes)."""
        return {}

    def place_data(
        self,
        topo: Topology,
        dataset: ScaledDataset,
        hotness: np.ndarray,
        plan: CapacityPlan,
        traffic: Optional[Dict[str, float]] = None,
    ) -> DataPlacement:
        """Produce the vertex-to-bin data placement for this system."""
        raise NotImplementedError

    def hbm_cache_budget(
        self,
        dataset: ScaledDataset,
        model: str,
        num_gpus: int,
        io: Optional[IoStackConfig] = None,
    ) -> float:
        """Effective per-GPU embedding-cache bytes for this system.

        The same budgeting path :meth:`run` uses — fixed reservations
        (model state, activations, I/O buffers, system extras) come off
        the ledger, and the remainder is scaled by the system's cache
        fraction and efficiency.  Raises :class:`OutOfMemoryError` when
        nothing is left; callers probing OOM frontiers (the fabric
        sweep's monotonicity invariant) can call this without running an
        epoch.
        """
        io = io or IoStackConfig()
        extra = self.extra_gpu_reservations(dataset, num_gpus)
        ledger = gpu_memory_budget(
            self.machine, dataset, model, num_gpus, io, extra
        )
        cache_bytes = (
            ledger.free_bytes
            * self.gpu_cache_fraction
            * self.gpu_cache_efficiency
        )
        if cache_bytes <= 0:
            raise OutOfMemoryError(
                f"{self.name}: no HBM left for an embedding cache\n"
                + ledger.report()
            )
        return cache_bytes

    def default_placement(
        self, dataset: ScaledDataset, num_gpus: int, num_ssds: int
    ) -> Optional[Placement]:
        """The layout this system runs on when none is given.

        Baselines that ship a fixed layout (M-Hyperion, M-GIDS) override
        this; the base system has no default and :meth:`choose_placement`
        raises without an explicit placement.
        """
        return None

    def choose_placement(
        self,
        dataset: ScaledDataset,
        placement: Optional[Placement],
        num_gpus: int,
        num_ssds: int,
        nvlink_pairs,
    ) -> Tuple[Placement, Optional[MomentPlan]]:
        """Pick the hardware placement (and optional MomentPlan)."""
        if placement is None:
            placement = self.default_placement(dataset, num_gpus, num_ssds)
        if placement is None:
            raise ValueError(f"{self.name} requires an explicit placement")
        return placement, None

    # -- main entry point --------------------------------------------------
    def run(self, spec: RunSpec, **extra) -> SystemResult:
        """Budget memory, place data, and simulate one epoch of ``spec``::

            system.run(RunSpec(dataset=ds, sample_batches=6))

        Anything but a lone :class:`~repro.runtime.spec.RunSpec` — a
        dataset, or loose keyword options — is a ``TypeError``.

        With telemetry enabled (:func:`repro.obs.enable` /
        :func:`~repro.obs.capture`), the run executes inside a
        ``system.run`` span and the result's :attr:`SystemResult.telemetry`
        carries the spans and metric deltas it produced.
        """
        require_run_spec(f"{type(self).__name__}.run", spec, extra)
        scope = obs.scope()
        with obs.span(
            "system.run",
            system=self.name,
            machine=self.machine.name,
            dataset=spec.dataset.spec.key,
            model=spec.model,
            gpus=spec.num_gpus,
        ) as sp:
            # spec.seed overrides the system's seed for this run only
            # (repetition driver: same system, derived per-rep seeds)
            prev_seed = self.seed
            if spec.seed is not None:
                self.seed = spec.seed
            try:
                result = self._run(spec)
            finally:
                self.seed = prev_seed
            sp.set(ok=result.ok)
        if scope is not None:
            result.telemetry = scope.collect()
        return result

    def _run(self, spec: RunSpec) -> SystemResult:
        dataset = spec.dataset
        placement = spec.placement
        model = spec.model
        num_gpus = spec.num_gpus
        num_ssds = spec.num_ssds
        fanouts = spec.fanouts
        sample_batches = spec.sample_batches
        nvlink_pairs = spec.nvlink_pairs
        hotness = spec.hotness
        io = IoStackConfig()
        declared = spec.resolve_machine()
        if declared is not None and declared.name != self.machine.name:
            raise ValueError(
                f"spec names hardware {declared.name!r} but this system "
                f"was built for {self.machine.name!r}; build the system "
                "from the spec (repro.api.system_for) or drop the spec's "
                "machine/fabric field"
            )
        result = SystemResult(
            system=self.name,
            machine=self.machine.name,
            dataset=dataset.spec.key,
            model=model,
            num_gpus=num_gpus,
            seed=self.seed if isinstance(self.seed, int) else None,
            repetition=spec.repetition,
        )
        try:
            cache_bytes = self.hbm_cache_budget(
                dataset, model, num_gpus, io
            )
        except OutOfMemoryError as err:
            result.oom = str(err)
            return result

        with obs.span("system.choose_placement", system=self.name):
            chosen, plan = self.choose_placement(
                dataset, placement, num_gpus, num_ssds, nvlink_pairs
            )
        if plan is not None and _pair_key(plan.nvlink_pairs) == _pair_key(
            nvlink_pairs
        ):
            # optimize() already built the chosen placement on these pairs
            topo = plan.topology
        else:
            topo = self.machine.build(chosen, nvlink_pairs=nvlink_pairs)
        fab = fabric_summary(self.machine, topo)
        result.fabric = fab
        # Key the run's counters by fabric shape so warehouse rows can
        # group by the chassis the run actually executed on.
        obs.add("fabric.nodes", fab["nodes"], fabric=fab["fingerprint"])
        obs.add("fabric.links", fab["links"], fabric=fab["fingerprint"])
        obs.add("fabric.tiers", fab["tiers"], fabric=fab["fingerprint"])
        if fab.get("generator_seed") is not None:
            obs.add(
                "fabric.generator_seed",
                fab["generator_seed"],
                fabric=fab["fingerprint"],
            )

        cap_plan = capacity_plan(
            self.machine,
            dataset,
            gpu_cache_fraction=1.0,  # replaced below with the ledger value
            cpu_cache_vertex_fraction=self.cpu_cache_vertex_fraction,
        )
        cap_plan = CapacityPlan(
            gpu_cache_bytes=dataset.scaled_capacity(cache_bytes),
            cpu_cache_bytes=cap_plan.cpu_cache_bytes,
            ssd_capacity_bytes=cap_plan.ssd_capacity_bytes,
        )

        if hotness is None:
            if plan is not None:
                hotness = plan.hotness
            else:
                hotness = MomentOptimizer(
                    self.machine, num_gpus, num_ssds,
                    OptimizerConfig(fanouts=fanouts, seed=self.seed),
                ).estimate_hotness(dataset)

        traffic = plan.prediction.storage_rate if plan is not None else None
        if traffic is not None:
            # degenerate LP optima can park a symmetric drive at zero
            # or overshoot what fair-share arbitration will serve;
            # repair both before DDAK weighs bins by the rates
            traffic = reconcile_storage_rates(topo, traffic)
        with obs.span("system.place_data", system=self.name):
            data_placement = self.place_data(
                topo, dataset, hotness, cap_plan, traffic
            )

        binding = None
        if not self.shares_ssds:
            binding = static_ssd_binding(topo)

        sim = EpochSimulator(
            topo,
            self.machine,
            dataset,
            data_placement,
            SimConfig(
                fanouts=tuple(fanouts),
                model_name=model,
                sample_batches=sample_batches,
                io=io,
                io_amplification=self.io_amplification,
                seed=self.seed,
            ),
            ssd_binding=binding,
            faults=spec.faults,
        )
        on_step = None
        replan_cfg = spec.replan_config
        if replan_cfg is not None:
            if plan is not None and plan.fractions is not None:
                fractions = plan.fractions
            else:
                fractions = tier_fractions(
                    hotness,
                    dataset.feature_bytes,
                    cap_plan,
                    num_gpus,
                    gpu_cache_policy=self.gpu_cache_policy,
                )
            policy = ReplanPolicy(
                sim,
                chosen,
                hotness,
                cap_plan,
                fractions,
                config=replan_cfg,
                nvlink_pairs=nvlink_pairs,
                gpu_cache_policy=self.gpu_cache_policy,
            )
            on_step = policy.on_step
            result.replan = policy.report
        result.epoch = sim.run_epoch(on_step=on_step)
        result.plan = plan
        result.placement = chosen
        result.data_placement = data_placement
        result.search = plan.search if plan is not None else None
        return result


class MomentSystem(GnnSystem):
    """The paper's system: optimizer-chosen placement + DDAK."""

    name = "moment"
    shares_ssds = True

    def __init__(
        self,
        machine: MachineSpec,
        optimizer_config: Optional[OptimizerConfig] = None,
        **kwargs,
    ) -> None:
        super().__init__(machine, **kwargs)
        self.optimizer_config = optimizer_config

    def choose_placement(
        self, dataset, placement, num_gpus, num_ssds, nvlink_pairs
    ):
        """Pick the hardware placement (and optional MomentPlan)."""
        cfg = self.optimizer_config or OptimizerConfig(
            gpu_cache_fraction=self.gpu_cache_fraction,
            cpu_cache_vertex_fraction=self.cpu_cache_vertex_fraction,
            nvlink_pairs=tuple(nvlink_pairs) if nvlink_pairs else None,
            seed=self.seed,
        )
        optimizer = MomentOptimizer(self.machine, num_gpus, num_ssds, cfg)
        candidates = [placement] if placement is not None else None
        plan = optimizer.optimize(dataset, candidates=candidates)
        return plan.placement, plan

    def place_data(self, topo, dataset, hotness, plan, traffic=None):
        """Produce the vertex-to-bin data placement for this system."""
        bins = make_bins(
            topo,
            gpu_cache_bytes=plan.gpu_cache_bytes,
            cpu_cache_bytes=plan.cpu_cache_bytes,
            ssd_capacity_bytes=plan.ssd_capacity_bytes,
            traffic=traffic,
        )
        return ddak_place(bins, hotness, dataset.feature_bytes)
