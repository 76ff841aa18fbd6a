"""Multi-node generalization of Moment (paper Section 5, "Generalization
to Multi-node").

The paper sketches the extension: "model the cluster-level communication
topology by treating NICs, GPUs, and SSDs as hardware units connected
via PCIe.  As such, network communication links between NICs on
different machines form the edges of the topology graph...  Then Moment
determines the data traffic distribution and data placement based on
the graphs."  The authors leave it as future work; we implement it:

* :func:`namespace_topology` — clone a single-machine topology with a
  node prefix so several machines can coexist in one graph;
* :class:`ClusterBuilder` — merge per-node topologies, attach one NIC
  per node to its root complex, and join NICs through a network core
  (star topology, the common leaf-spine abstraction);
* :class:`MultiNodeMoment` — run the single-node automatic module per
  machine, then place data globally with DDAK over the union of all
  nodes' bins: remote reads transparently route PCIe -> NIC -> network
  -> NIC -> PCIe in the same flow model, so "prioritising local
  SSD/memory access" (the paper's mitigation) is exactly what the
  knapsack's traffic targets encode.

The existing epoch simulator runs unmodified on the merged topology —
cross-node fetches are just flows whose paths traverse network links.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.ddak import (
    Bin,
    DataPlacement,
    GPU_REPLICATED,
    TIER_GPU,
    ddak_place,
    make_bins,
)
from repro import obs
from repro.core.optimizer import (
    MomentOptimizer,
    OptimizerConfig,
    capacity_plan,
)
from repro.core.placement import Placement
from repro.core.search import ScoredPlacement
from repro.core.topology import Link, LinkKind, Node, NodeKind, Topology
from repro.graphs.datasets import ScaledDataset
from repro.hardware.machines import MachineSpec
from repro.hardware.specs import NIC_100G_BW
from repro.utils.rng import SeedLike
from repro.utils.validation import check_positive


def namespace_topology(topo: Topology, prefix: str) -> Topology:
    """Clone a topology with every node renamed ``{prefix}/{name}``.

    Keeps all kinds, capacities and labels; used to merge several
    machines into one cluster graph without name collisions.
    """
    if not prefix or "/" in prefix:
        raise ValueError(f"invalid node prefix {prefix!r}")
    out = Topology(f"{prefix}/{topo.name}")
    for node in topo.nodes:
        out.add_node(Node(f"{prefix}/{node.name}", node.kind, node.egress_bw))
    for link in topo.links:
        out.add_directed_link(
            Link(
                f"{prefix}/{link.src}",
                f"{prefix}/{link.dst}",
                link.capacity,
                link.kind,
                link.label,
            )
        )
    return out


@dataclass
class ClusterNode:
    """One machine of the cluster: its spec and hardware placement."""

    machine: MachineSpec
    placement: Placement
    name: str = ""


class ClusterBuilder:
    """Merge machines into one cluster-level communication topology."""

    def __init__(
        self,
        nic_bw: float = NIC_100G_BW,
        core_bw: Optional[float] = None,
    ) -> None:
        check_positive("nic_bw", nic_bw)
        self.nic_bw = nic_bw
        #: network-core aggregate per node pair path; None = non-blocking
        self.core_bw = core_bw
        self.nodes: List[ClusterNode] = []

    def add_node(
        self, machine: MachineSpec, placement: Placement, name: str = ""
    ) -> "ClusterBuilder":
        """Append a machine (chainable)."""
        self.nodes.append(
            ClusterNode(machine, placement, name or f"n{len(self.nodes)}")
        )
        return self

    def build(self) -> Topology:
        """The merged topology: nodes, NICs, and a star network core."""
        if not self.nodes:
            raise ValueError("cluster needs at least one node")
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate node names: {names}")
        cluster = Topology(
            "cluster[" + ",".join(n.machine.name for n in self.nodes) + "]"
        )
        core_capacity = (
            self.core_bw
            if self.core_bw is not None
            else self.nic_bw * len(self.nodes)
        )
        if len(self.nodes) > 1:
            cluster.add("net", NodeKind.SWITCH)
        for node in self.nodes:
            topo = namespace_topology(
                node.machine.build(node.placement), node.name
            )
            for n in topo.nodes:
                cluster.add_node(n)
            for link in topo.links:
                cluster.add_directed_link(link)
            if len(self.nodes) > 1:
                nic = f"{node.name}/nic"
                cluster.add(nic, NodeKind.NIC)
                # NIC hangs off the node's first root complex
                cluster.add_link(
                    nic, f"{node.name}/rc0", self.nic_bw, LinkKind.PCIE,
                    "nic-pcie",
                )
                cluster.add_link(
                    nic, "net", min(self.nic_bw, core_capacity),
                    LinkKind.NETWORK, "uplink",
                )
        cluster.validate()
        return cluster


@dataclass
class MultiNodePlan:
    """Result of the cluster-level co-optimization."""

    topology: Topology
    nodes: List[ClusterNode]
    data_placement: DataPlacement
    #: per-node predicted throughput from the single-node module
    node_throughput: Dict[str, float] = field(default_factory=dict)

    @property
    def num_gpus(self) -> int:
        """Total GPUs across the cluster."""
        return len(self.topology.gpus())


class MultiNodeMoment:
    """Moment's automatic module lifted to a cluster.

    Per node, the regular single-machine optimizer picks a hardware
    placement.  Then a single global DDAK run places every vertex in
    exactly one bin across the whole cluster — GPU caches stay
    node-local (replicated per node), CPU/SSD bins are shared, and
    DDAK's traffic targets make remote (NIC-crossing) bins absorb only
    what the network can actually deliver.
    """

    def __init__(
        self,
        machines: Sequence[MachineSpec],
        num_gpus_per_node: int = 4,
        num_ssds_per_node: int = 8,
        nic_bw: float = NIC_100G_BW,
        config: Optional[OptimizerConfig] = None,
        seed: SeedLike = 0,
    ) -> None:
        if not machines:
            raise ValueError("need at least one machine")
        self.machines = list(machines)
        self.num_gpus_per_node = num_gpus_per_node
        self.num_ssds_per_node = num_ssds_per_node
        self.nic_bw = nic_bw
        self.config = config or OptimizerConfig()
        self.seed = seed

    def optimize(self, dataset) -> MultiNodePlan:
        """Co-optimize the cluster for ``dataset``.

        Also accepts a :class:`~repro.RunSpec` (only its ``dataset``
        and ``hotness`` fields apply at cluster level — per-node GPU
        and SSD counts are fixed by the constructor).
        """
        from repro.runtime.spec import RunSpec

        preset_hotness = None
        if isinstance(dataset, RunSpec):
            preset_hotness = dataset.hotness
            dataset = dataset.dataset
        # 1. per-node hardware placement via the shared search engine.
        # Each node issues one SearchRequest (via MomentOptimizer.search,
        # so worker/pruning knobs apply per node); DDAK is *not* run per
        # node — step 2 places data once, globally.
        builder = ClusterBuilder(nic_bw=self.nic_bw)
        node_throughput: Dict[str, float] = {}
        hotness = preset_hotness
        winners: List[ScoredPlacement] = []
        for i, machine in enumerate(self.machines):
            optimizer = MomentOptimizer(
                machine,
                self.num_gpus_per_node,
                self.num_ssds_per_node,
                self.config,
            )
            if hotness is None:
                hotness = optimizer.estimate_hotness(dataset)
            with obs.span(
                "cluster.node_search", node=f"n{i}", machine=machine.name
            ):
                result = optimizer.search(dataset, hotness)
            winners.append(result.best)
            builder.add_node(machine, result.best.placement, name=f"n{i}")
            node_throughput[f"n{i}"] = result.best.throughput
        topology = builder.build()

        # 2. global DDAK over the union of all nodes' bins
        bins: List[Bin] = []
        for i, (machine, best) in enumerate(zip(self.machines, winners)):
            cap = capacity_plan(
                machine,
                dataset,
                gpu_cache_fraction=self.config.gpu_cache_fraction,
                cpu_cache_vertex_fraction=(
                    self.config.cpu_cache_vertex_fraction
                ),
            )
            node_topo = namespace_topology(
                machine.build(best.placement), f"n{i}"
            )
            traffic = {
                f"n{i}/{name}": rate
                for name, rate in best.prediction.storage_rate.items()
            }
            node_bins = make_bins(
                node_topo,
                gpu_cache_bytes=cap.gpu_cache_bytes,
                cpu_cache_bytes=cap.cpu_cache_bytes,
                ssd_capacity_bytes=cap.ssd_capacity_bytes,
                traffic=traffic,
            )
            # the replicated-GPU bin must stay node-local: rename it
            for b in node_bins:
                if b.name == GPU_REPLICATED:
                    bins.append(
                        Bin(f"n{i}/{GPU_REPLICATED}", TIER_GPU,
                            b.capacity_bytes, b.traffic)
                    )
                else:
                    bins.append(b)

        # cluster-wide DDAK: the per-node replicated GPU bins all sit in
        # the top tier, and DDAK fills the highest tier first and splits
        # within a tier by traffic targets, so each node's cache absorbs
        # (its share of) the hottest vertices and the SSD tier spreads
        # the rest cluster-wide
        data_placement = ddak_place(bins, hotness, dataset.feature_bytes)
        return MultiNodePlan(
            topology=topology,
            nodes=builder.nodes,
            data_placement=data_placement,
            node_throughput=node_throughput,
        )


def node_local_bins(placement: DataPlacement, node: str) -> List[str]:
    """Bin names belonging to one cluster node (``"n0"``)."""
    return [b.name for b in placement.bins if b.name.startswith(f"{node}/")]
