"""Epoch-time simulation of multi-GPU out-of-core GNN training.

:class:`EpochSimulator` reproduces the paper's runtime (Section 3.1):
data-parallel training with the training vertices evenly partitioned
across GPUs, each GPU pipelining **sampling** (adjacency reads from CPU
memory + GPU-side sampling kernels), **feature extraction** (page reads
from SSDs / CPU caches / peer GPU caches over the PCIe fabric) and
**model training** (the analytic compute-cost model), with a gradient
all-reduce barrier per step.

Per simulated step, every GPU's feature demand is derived from a *real*
sampled mini-batch mapped through the *actual data placement*; all
transfers contend on the topology under max-min fair sharing
(:mod:`repro.simulator.bandwidth`).  In a 3-stage pipeline the steady-
state step time is the slowest stage, plus the non-overlapped gradient
synchronisation; the epoch time extrapolates the mean over
``sample_batches`` simulated steps.

Everything runs at the dataset's reduced scale; results carry both the
simulated and the rescaled ("paper") epoch time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.ddak import DataPlacement
from repro.core.flowmodel import TrafficDemand
from repro.core.topology import NodeKind, Topology
from repro.gnn.costmodel import BatchShape, ComputeCostModel, allreduce_seconds
from repro.graphs.datasets import ScaledDataset
from repro.graphs.partition import partition_random
from repro.hardware.machines import MachineSpec
from repro.sampling.neighbor import sample_batch
from repro.simulator.bandwidth import Flow, progressive_fill
from repro.simulator.iostack import (
    DETECTION_STALL_S,
    MAX_RETRIES,
    PAGE_BYTES,
    QUEUE_DEPTH,
    effective_read_bw,
    pages_for_bytes,
)
from repro.simulator.routing import Router, egress_key
from repro.simulator.traffic import TrafficAccount
from repro.utils.rng import SeedLike, ensure_rng, spawn_rngs

#: Suffix marking a demand source as a failed drive's replica-recovery
#: path: reads against ``f"{ssd}{_RECOVERY_SUFFIX}"`` route over the
#: bounded ``("recovery", ssd)`` resource instead of the dead drive.
_RECOVERY_SUFFIX = "!recovery"

#: Output classes of the simulated model's head.
NUM_CLASSES = 16
#: Adjacency bytes read from CPU memory per sampled edge (CSR neighbour
#: lookup + wash: two 8-byte words).
TOPO_READ_BYTES_PER_EDGE = 16.0
#: Fraction of a congestion-prone fetch relayed through the GPU's NVLink
#: partner (the relay costs an extra HBM hop and partner SM time, so it
#: only offloads).
NVLINK_RELAY_FRACTION = 0.25


@dataclass(frozen=True)
class SimConfig:
    """Knobs of the epoch simulator."""

    fanouts: Tuple[int, ...] = (25, 10)
    model_name: str = "graphsage"  # "graphsage" | "gat"
    #: Steps actually simulated; the epoch extrapolates their mean.
    sample_batches: int = 10
    #: Multiplier on external feature bytes — systems without cross-hop
    #: request deduplication / with page-granular over-fetch (M-GIDS's
    #: BaM path) read more than the unique working set.
    io_amplification: float = 1.0
    seed: SeedLike = 0

    def __post_init__(self) -> None:
        if self.model_name not in ("graphsage", "gat", "gcn"):
            raise ValueError(f"unknown model {self.model_name!r}")
        if self.sample_batches < 1:
            raise ValueError("sample_batches must be >= 1")
        if not self.fanouts:
            raise ValueError("need at least one fanout")


@dataclass
class EpochResult:
    """Simulated epoch outcome.

    All quantities are in the **paper frame**: per-step transfers are
    rescaled by the dataset's batch ratio before bandwidth allocation
    and step counts use the paper's batch size, so epoch times, traffic
    bytes, and rates compare directly against the paper's reported
    numbers.  ``epoch_seconds`` and ``paper_epoch_seconds`` are equal
    (the latter kept for API clarity at call sites).
    """

    epoch_seconds: float
    paper_epoch_seconds: float
    num_steps: int
    #: Mean per-step stage durations, worst GPU (seconds).
    io_seconds: float
    sample_seconds: float
    compute_seconds: float
    sync_seconds: float
    #: Aggregate external feature bytes per epoch / epoch time.
    throughput_bytes_per_s: float
    #: Trained seed vertices per second (scale-invariant).
    seeds_per_s: float
    #: Mean external inlet rate per GPU during the I/O stage (bytes/s).
    per_gpu_inlet: Dict[str, float]
    #: Bytes served locally (own-GPU cache) vs over the fabric, per epoch.
    local_bytes: float
    external_bytes: float
    #: Per-epoch traffic per physical resource.
    traffic: TrafficAccount
    #: Per-epoch (bin, gpu) demand — input for the max-flow predictor.
    demand: TrafficDemand
    #: Simulated per-step durations (seconds), in step order — the
    #: throughput trajectory fault experiments plot.  Includes any
    #: replan migration charges returned by ``run_epoch``'s ``on_step``.
    step_seconds: List[float] = field(default_factory=list)


class EpochSimulator:
    """Simulates epochs of one system configuration.

    Parameters
    ----------
    topo:
        Runtime topology (from :meth:`MachineSpec.build`).
    machine:
        Device specs (GPU flops, SSD IOPS) for cost models.
    dataset:
        Scaled dataset instance.
    placement:
        Vertex-to-bin data placement (DDAK, hash, ...).
    config:
        Simulation knobs.
    ssd_binding:
        Optional map ``gpu name -> allowed SSD names`` modelling systems
        (M-GIDS) that statically bind drives to GPUs: feature reads for
        SSD-resident vertices are redirected to the bound drives
        (round-robin), regardless of where placement put them.
    faults:
        Optional :class:`~repro.faults.schedule.FaultSchedule` injected
        step-by-step: degraded capacities, failed-drive re-routing to
        the recovery tier, and GPU cache evictions.  ``None`` or an
        empty schedule reproduces the fault-free path bit-for-bit.
    """

    def __init__(
        self,
        topo: Topology,
        machine: MachineSpec,
        dataset: ScaledDataset,
        placement: DataPlacement,
        config: Optional[SimConfig] = None,
        ssd_binding: Optional[Dict[str, Sequence[str]]] = None,
        faults: Optional[object] = None,
    ) -> None:
        self.topo = topo
        self.machine = machine
        self.dataset = dataset
        self.placement = placement
        self.config = config or SimConfig()
        self.ssd_binding = {
            g: list(v) for g, v in (ssd_binding or {}).items()
        }
        if placement.bin_of.size != dataset.graph.num_vertices:
            raise ValueError("placement does not cover the dataset's vertices")
        self.router = Router(topo)
        self.gpus = topo.gpus()
        if not self.gpus:
            raise ValueError("topology has no GPUs")
        self.cost_model = ComputeCostModel(
            machine.gpu,
            self.config.model_name,
            in_dim=dataset.graph.feature_dim,
            num_classes=NUM_CLASSES,
        )
        self._capacities = self._build_capacities()
        self.injector = None
        if faults:
            # lazy import: repro.faults imports simulator submodules at
            # module level, so this module must never import it at scope
            from repro.faults.injector import FaultInjector

            self.injector = FaultInjector(topo, faults, self._capacities)
        self._mem_banks = sorted(
            n.name for n in topo.nodes_of_kind(NodeKind.CPU_MEM)
        )
        self._mem_set = set(self._mem_banks)
        self._ssd_set = set(topo.ssds())
        self._bin_names = [b.name for b in placement.bins]
        self._param_bytes = self._model_param_bytes()
        #: paper-frame multiplier for per-step byte/shape quantities
        self._ratio = float(dataset.batch_ratio)
        #: NVLink partner per GPU (first bridge found), for multipathing
        from repro.core.topology import LinkKind

        self._nv_partner: Dict[str, str] = {}
        for link in topo.links:
            if link.kind is LinkKind.NVLINK and link.src in self.gpus:
                self._nv_partner.setdefault(link.dst, link.src)

    # ------------------------------------------------------------------
    def _build_capacities(self) -> Dict:
        caps = self.router.capacities
        # SSD egress limited by page-granular IOPS, not just rated bw
        eff = effective_read_bw(
            self.machine.ssd,
            page_bytes=PAGE_BYTES,
            queue_depth=QUEUE_DEPTH,
        )
        self._ssd_eff_bw = eff
        for ssd in self.topo.ssds():
            key = egress_key(ssd)
            if key in caps:
                caps[key] = min(caps[key], eff)
        return caps

    def _model_param_bytes(self) -> float:
        d = self.dataset.graph.feature_dim
        if self.config.model_name == "graphsage":
            hidden = 256
            return 4.0 * (2 * d * hidden + 2 * hidden * NUM_CLASSES)
        if self.config.model_name == "gcn":
            hidden = 256
            return 4.0 * (d * hidden + hidden * NUM_CLASSES)
        hidden, heads = 64, 8
        width = hidden * heads
        return 4.0 * (d * width + width * NUM_CLASSES)

    # ------------------------------------------------------------------
    def _bin_source(self, bin_name: str, gpu: str) -> Optional[str]:
        """Routable source node for a bin read by ``gpu``.

        ``None`` means the read is local (free): the replicated cache or
        the GPU's own partitioned cache.  A peer's ``gpuN:mem`` bin is
        served P2P from that GPU's HBM.
        """
        from repro.core.ddak import GPU_REPLICATED

        if bin_name == GPU_REPLICATED or bin_name == f"{gpu}:mem":
            return None
        return bin_name

    def set_placement(self, placement: DataPlacement) -> None:
        """Swap in a new data placement mid-run (replanning).

        Migration cost is *not* charged here — the replan policy
        accounts it through ``run_epoch``'s ``on_step`` hook.
        """
        if placement.bin_of.size != self.dataset.graph.num_vertices:
            raise ValueError("placement does not cover the dataset's vertices")
        self.placement = placement
        self._bin_names = [b.name for b in placement.bins]

    def _gpu_demand(
        self, gpu: str, unique_vertices: np.ndarray, view=None
    ) -> Tuple[Dict[str, float], float]:
        """(external bytes per source node, local bytes) for one batch.

        The replicated GPU cache (:data:`~repro.core.ddak.GPU_REPLICATED`)
        and the GPU's own partitioned cache are local (free).  Systems
        with static SSD binding redirect all SSD-resident reads to the
        GPU's bound drives (their striping replicates data per GPU).

        Under a fault view, reads against failed drives are re-keyed to
        the drive's recovery source and a ``GpuEvict``'s share of local
        hits becomes CPU-memory reads spread over every DRAM bank.
        """
        fb = (
            float(self.dataset.feature_bytes)
            * self._ratio
            * self.config.io_amplification
        )
        bins = np.asarray(self.placement.bin_of)[unique_vertices]
        counts = np.bincount(bins, minlength=len(self._bin_names))
        demand: Dict[str, float] = {}
        local = 0.0
        bound = self.ssd_binding.get(gpu)
        failed = view.failed_ssds if view is not None else ()
        redirect = 0.0
        for bin_idx, count in enumerate(counts):
            if count == 0:
                continue
            name = self._bin_names[bin_idx]
            nbytes = count * fb
            source = self._bin_source(name, gpu)
            if source is None:
                local += nbytes
            elif bound is not None and source.startswith("ssd"):
                # statically-bound I/O stacks stripe each GPU's data
                # across its own drives only
                redirect += nbytes
            else:
                if source in failed:
                    source += _RECOVERY_SUFFIX
                demand[source] = demand.get(source, 0.0) + nbytes
        if redirect:
            if not bound:
                raise ValueError(f"{gpu} has an empty SSD binding")
            share = redirect / len(bound)
            for drive in bound:
                key = drive + _RECOVERY_SUFFIX if drive in failed else drive
                demand[key] = demand.get(key, 0.0) + share
        if view is not None:
            evicted = view.evict_fraction.get(gpu, 0.0)
            if evicted > 0 and local > 0:
                moved = local * evicted
                local -= moved
                if self._mem_banks:
                    share = moved / len(self._mem_banks)
                    for bank in self._mem_banks:
                        demand[bank] = demand.get(bank, 0.0) + share
        return demand, local

    def simulate_step(
        self,
        rngs: List[np.random.Generator],
        parts: List[np.ndarray],
        view=None,
    ) -> Tuple[Dict[str, float], Dict, TrafficDemand, float]:
        """Simulate one training step on every GPU.

        ``view`` is an optional :class:`~repro.faults.injector.FaultView`:
        transfers then contend on the degraded capacities, failed-drive
        reads route over the recovery tier, and faults activating this
        step charge the retry-ladder detection stall to the I/O stage.

        Returns (per-stage worst-GPU durations, fair-share result,
        step demand, local bytes).
        """
        cfg = self.config
        ds = self.dataset
        flows: List[Flow] = []
        local_total = 0.0
        demand = TrafficDemand()
        shapes: Dict[str, BatchShape] = {}
        sample_gpu_cost: Dict[str, float] = {}
        for gpu, rng, part in zip(self.gpus, rngs, parts):
            take = min(ds.batch_size, part.size)
            seeds = rng.choice(part, size=take, replace=False)
            sample = sample_batch(ds.graph, seeds, cfg.fanouts, seed=rng)
            # per-GNN-layer work: layer l consumes hop L-l's edges; a
            # hop's src repeats each distinct frontier vertex ``fanout``
            # times, so it has num_edges // fanout destination nodes
            layer_work = tuple(
                (layer.num_edges // fanout, layer.num_edges)
                for layer, fanout in zip(
                    reversed(sample.layers), reversed(cfg.fanouts)
                )
            )
            shapes[gpu] = BatchShape(
                sample.num_unique, sample.num_edges, layer_work
            ).scaled(self._ratio)
            sample_gpu_cost[gpu] = self.cost_model.sampling_seconds(shapes[gpu])
            # feature-fetch flows
            per_bin, local = self._gpu_demand(gpu, sample.unique_vertices, view)
            local_total += local
            for bin_name, nbytes in sorted(per_bin.items()):
                demand.add(bin_name, gpu, nbytes)
                flows.extend(self._route_flows(bin_name, gpu, nbytes))
            # adjacency reads from CPU memory during sampling, spread
            # over every DRAM bank
            topo_bytes = (
                sample.num_edges * TOPO_READ_BYTES_PER_EDGE * self._ratio
            )
            if topo_bytes > 0 and self._mem_banks:
                share = topo_bytes / len(self._mem_banks)
                for bank in self._mem_banks:
                    flows.append(
                        Flow(
                            path=self.router.path(bank, gpu),
                            demand=share,
                            tag=("topo", gpu),
                        )
                    )
            # double buffering: the next batch's prefetch flows share
            # the fabric so the gating batch's tail never leaves links
            # idle (its bytes are accounted in *its own* step)
            pre_seeds = rng.choice(part, size=take, replace=False)
            pre = sample_batch(ds.graph, pre_seeds, cfg.fanouts, seed=rng)
            pre_bins, _ = self._gpu_demand(gpu, pre.unique_vertices, view)
            for bin_name, nbytes in sorted(pre_bins.items()):
                for f in self._route_flows(bin_name, gpu, nbytes):
                    flows.append(Flow(f.path, f.demand, ("prefetch", gpu)))
        capacities = self._capacities if view is None else view.capacities
        fair = progressive_fill(flows, capacities)
        finish = fair.finish_by_tag()
        # steady-state pipelining: the gating batch and its prefetch
        # drain together, so the per-step I/O time is the joint makespan
        # amortised over the batches in flight (tails overlap
        # neighbouring steps)
        in_flight = 2
        io_t = max(
            (
                max(
                    finish.get(("feat", g), 0.0),
                    finish.get(("prefetch", g), 0.0),
                )
                / in_flight
                for g in self.gpus
            ),
            default=0.0,
        )
        if view is not None:
            io_t += self._fault_step_costs(view, demand)
        sample_t = max(
            finish.get(("topo", g), 0.0) + sample_gpu_cost[g] for g in self.gpus
        )
        compute_t = max(
            self.cost_model.batch_seconds(shapes[g]) for g in self.gpus
        )
        sync_t = allreduce_seconds(
            self._param_bytes, len(self.gpus), self._sync_bw()
        )
        stages = {
            "io": io_t,
            "sample": sample_t,
            "compute": compute_t,
            "sync": sync_t,
        }
        return stages, fair, demand, local_total

    def _fault_step_costs(self, view, demand: TrafficDemand) -> float:
        """Extra I/O seconds and counters for one faulted step.

        Faults whose onset is this step charge the retry-ladder
        detection stall once; the retries burned against each newly
        dead drive are counted from the bytes that had to re-route.
        """
        from repro.faults.models import SsdFailure

        tel = obs.active()
        if tel is not None:
            for f in view.activated:
                obs.add("faults.injected", 1, kind=f.kind, target=f.target)
        stall = 0.0
        for f in view.activated:
            if not isinstance(f, SsdFailure):
                continue
            stall += DETECTION_STALL_S
            if tel is not None:
                rerouted = sum(
                    nbytes
                    for (src, _g), nbytes in demand.entries.items()
                    if src == f.ssd + _RECOVERY_SUFFIX
                )
                obs.add(
                    "io.retries",
                    pages_for_bytes(rerouted, PAGE_BYTES) * MAX_RETRIES,
                    ssd=f.ssd,
                )
        return stall

    def _tier_of(self, source: str) -> str:
        """Serving tier of one routable source node (telemetry label)."""
        if source.endswith(_RECOVERY_SUFFIX):
            return "recovery"
        if source in self._ssd_set:
            return "ssd"
        if source in self._mem_set:
            return "cpu"
        return "peer_gpu"

    def _trunk_keys(self, path) -> set:
        """Resource keys of inter-interconnect trunks (and the QPI P2P
        pool) on a path — the links that actually congest."""
        out = set()
        for key in path:
            if key[0] == "qpi_p2p":
                out.add(key)
            elif key[0] == "link":
                src_k = self.topo.node(key[1]).kind
                dst_k = self.topo.node(key[2]).kind
                if src_k.is_interconnect and dst_k.is_interconnect:
                    out.add(key)
        return out

    def _route_flows(self, source: str, gpu: str, nbytes: float) -> List[Flow]:
        """Flows for one demand entry, recovery-source aware.

        A ``"{ssd}!recovery"`` source models the failed drive's pages
        being served from the host-side replica: the flow squeezes
        through the bounded ``("recovery", ssd)`` resource, then follows
        the CPU-memory route into the GPU (spread over every DRAM bank).
        """
        if not source.endswith(_RECOVERY_SUFFIX):
            return self._feature_flows(source, gpu, nbytes)
        ssd = source[: -len(_RECOVERY_SUFFIX)]
        banks = self._mem_banks
        if not banks:
            raise ValueError(f"no CPU banks to recover {ssd!r} reads through")
        share = nbytes / len(banks)
        tag = ("feat", gpu)
        return [
            Flow((("recovery", ssd),) + self.router.path(bank, gpu), share, tag)
            for bank in banks
        ]

    def _feature_flows(
        self, bin_name: str, gpu: str, nbytes: float
    ) -> List[Flow]:
        """Flows for one (bin, gpu) fetch, with NVLink relay.

        When the direct route traverses a contended trunk (QPI P2P pool
        or a switch/root trunk) that an NVLink partner's route avoids,
        :data:`NVLINK_RELAY_FRACTION` of the bytes relay through the
        partner (partner fetches, then forwards over NVLink) — the
        paper's Section-4.7 "alternative paths ... when PCIe channels
        become congested".
        """
        direct = self.router.path(bin_name, gpu)
        tag = ("feat", gpu)
        partner = self._nv_partner.get(gpu)
        if partner is None:
            return [Flow(direct, nbytes, tag)]
        direct_trunks = self._trunk_keys(direct)
        if not direct_trunks:
            return [Flow(direct, nbytes, tag)]
        via = self.router.path(bin_name, partner)
        if not (direct_trunks - self._trunk_keys(via)):
            return [Flow(direct, nbytes, tag)]  # relay avoids nothing
        from repro.simulator.routing import link_key

        relay = via + (link_key(partner, gpu),)
        return [
            Flow(direct, nbytes * (1 - NVLINK_RELAY_FRACTION), tag),
            Flow(relay, nbytes * NVLINK_RELAY_FRACTION, tag),
        ]

    def _sync_bw(self) -> float:
        """Gradient all-reduce bandwidth: the slowest ring hop — NVLink
        when bridged, else the GPU PCIe link."""
        from repro.core.topology import LinkKind

        nv = [
            l.capacity for l in self.topo.links if l.kind is LinkKind.NVLINK
        ]
        if nv:
            return min(nv)
        gpu_links = [
            l.capacity
            for l in self.topo.links
            if l.src in self.gpus and not l.src == l.dst
            and self.topo.node(l.dst).kind.is_interconnect
        ]
        return min(gpu_links) if gpu_links else 20e9

    # ------------------------------------------------------------------
    def run_epoch(self, on_step=None) -> EpochResult:
        """Simulate ``sample_batches`` steps and extrapolate one epoch.

        ``on_step(step, step_time, stages)`` is an optional per-step
        hook (the replan policy): called after each simulated step, and
        any float it returns is charged as extra seconds on that step
        (e.g. migration time).  It may mutate the simulator through
        :meth:`set_placement` before the next step.
        """
        cfg = self.config
        ds = self.dataset
        rng = ensure_rng(cfg.seed)
        parts = partition_random(ds.train_ids, len(self.gpus), seed=rng)
        rngs = spawn_rngs(rng, len(self.gpus))
        # paper-frame steps: the scaled step count corrected for the
        # batch-size floor (ratio < scale when the floor kicked in)
        steps_scaled = max(
            1, int(np.ceil(max(p.size for p in parts) / ds.batch_size))
        )
        steps_per_epoch = max(
            1, int(round(steps_scaled * ds.scale / self._ratio))
        )
        n_sim = min(cfg.sample_batches, steps_scaled)
        tel = obs.active()

        traffic = TrafficAccount(self.topo)
        total_demand = TrafficDemand()
        stage_sums = {"io": 0.0, "sample": 0.0, "compute": 0.0, "sync": 0.0}
        step_time_sum = 0.0
        step_times: List[float] = []
        local_sum = 0.0
        with obs.span(
            "epoch.run",
            dataset=ds.spec.key,
            gpus=len(self.gpus),
            steps_simulated=n_sim,
        ):
            for step in range(n_sim):
                view = (
                    self.injector.view(step)
                    if self.injector is not None
                    else None
                )
                with obs.span("epoch.step", step=step):
                    stages, fair, demand, local = self.simulate_step(
                        rngs, parts, view
                    )
                for k in stage_sums:
                    stage_sums[k] += stages[k]
                # 3-stage pipeline: slowest stage gates; sync is a barrier
                step_time = (
                    max(stages["io"], stages["sample"], stages["compute"])
                    + stages["sync"]
                )
                if on_step is not None:
                    extra = on_step(step, step_time, stages)
                    if extra:
                        step_time += float(extra)
                step_time_sum += step_time
                step_times.append(step_time)
                if tel is not None:
                    for k, v in stages.items():
                        obs.observe("sim.stage_seconds", v, stage=k)
                    obs.observe("sim.step_seconds", step_time)
                # account traffic from the gating demand's routed paths
                # (prefetch flows belong to later steps)
                step_traffic: Dict = {}
                for (bin_name, gpu), nbytes in demand.entries.items():
                    for f in self._route_flows(bin_name, gpu, nbytes):
                        for key in f.path:
                            step_traffic[key] = (
                                step_traffic.get(key, 0.0) + f.demand
                            )
                traffic.add(step_traffic)
                for key, nbytes in demand.entries.items():
                    total_demand.entries[key] = (
                        total_demand.entries.get(key, 0.0) + nbytes
                    )
                local_sum += local

        extrap = steps_per_epoch / n_sim
        epoch_seconds = (step_time_sum / n_sim) * steps_per_epoch
        external_bytes = total_demand.total * extrap
        local_bytes = local_sum * extrap
        epoch_demand = TrafficDemand(
            {k: v * extrap for k, v in total_demand.entries.items()}
        )
        per_gpu = epoch_demand.per_gpu()
        mean_io = stage_sums["io"] / n_sim
        io_time_epoch = max(mean_io * steps_per_epoch, 1e-12)
        traffic = traffic.scaled(extrap)
        if tel is not None:
            self._export_epoch_metrics(
                epoch_demand,
                per_gpu,
                local_bytes,
                traffic,
                stage_sums,
                step_time_sum,
                n_sim,
                epoch_seconds,
                io_time_epoch,
            )
        return EpochResult(
            epoch_seconds=epoch_seconds,
            paper_epoch_seconds=epoch_seconds,
            num_steps=steps_per_epoch,
            io_seconds=mean_io,
            sample_seconds=stage_sums["sample"] / n_sim,
            compute_seconds=stage_sums["compute"] / n_sim,
            sync_seconds=stage_sums["sync"] / n_sim,
            throughput_bytes_per_s=external_bytes / max(epoch_seconds, 1e-12),
            seeds_per_s=(
                ds.train_ids.size * ds.scale / max(epoch_seconds, 1e-12)
            ),
            per_gpu_inlet={
                g: per_gpu.get(g, 0.0) / io_time_epoch for g in self.gpus
            },
            local_bytes=local_bytes,
            external_bytes=external_bytes,
            traffic=traffic,
            demand=epoch_demand,
            step_seconds=step_times,
        )

    def _export_epoch_metrics(
        self,
        epoch_demand: TrafficDemand,
        per_gpu: Dict[str, float],
        local_bytes: float,
        traffic: TrafficAccount,
        stage_sums: Dict[str, float],
        step_time_sum: float,
        n_sim: int,
        epoch_seconds: float,
        io_time_epoch: float,
    ) -> None:
        """Publish one epoch's accounting to the active obs session.

        All quantities are paper-frame epoch totals, so the counters
        line up with :class:`EpochResult` and the paper's figures:
        ``sim.tier_bytes`` by serving tier (gpu = local cache hits),
        per-GPU demand, stage-occupancy shares, per-link traffic, and
        per-SSD utilization against the IOPS-capped effective rate.
        """
        obs.add("sim.tier_bytes", local_bytes, tier="gpu")
        for (source, _gpu), nbytes in epoch_demand.entries.items():
            obs.add("sim.tier_bytes", nbytes, tier=self._tier_of(source))
        for gpu in self.gpus:
            obs.add("sim.per_gpu_bytes", per_gpu.get(gpu, 0.0), gpu=gpu)
            obs.set_gauge(
                "sim.per_gpu_inlet",
                per_gpu.get(gpu, 0.0) / io_time_epoch,
                gpu=gpu,
            )
        mean_step = step_time_sum / n_sim
        if mean_step > 0:
            for k, total in stage_sums.items():
                obs.set_gauge(
                    "sim.stage_share", (total / n_sim) / mean_step, stage=k
                )
            obs.set_gauge(
                "sim.sync_share", (stage_sums["sync"] / n_sim) / mean_step
            )
        traffic.export_metrics(
            seconds=epoch_seconds, capacities=self._capacities
        )
        obs.set_gauge("io.ssd_effective_read_bw", self._ssd_eff_bw)
        for ssd in sorted(self._ssd_set):
            nbytes = traffic.egress_bytes(ssd)
            obs.add("io.ssd_bytes", nbytes, ssd=ssd)
            if self._ssd_eff_bw > 0:
                obs.set_gauge(
                    "io.ssd_utilization",
                    nbytes / (self._ssd_eff_bw * io_time_epoch),
                    ssd=ssd,
                )
