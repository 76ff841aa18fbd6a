"""Communication-topology graph model (paper Section 3.2).

A :class:`Topology` is a directed graph over hardware *nodes* (storage,
computation, interconnect) joined by capacity-constrained *links*.  It is
the common substrate for

* the max-flow throughput predictor (:mod:`repro.core.flowmodel`),
* the discrete-time epoch simulator (:mod:`repro.simulator`), and
* hardware-placement search (:mod:`repro.core.placement`).

Node taxonomy follows the paper:

* **storage nodes** (``V_s``) hold vertex embeddings: GPU HBM caches,
  CPU DRAM caches, and NVMe SSDs;
* **computation nodes** (``V_c``) consume embeddings: the GPUs;
* **interconnect nodes** (``V_i``) forward data: PCIe switches and CPU
  root complexes.

Physical links are full duplex: adding one with
:meth:`Topology.add_link` creates two independent directed edges, one
per direction, each with its own capacity (bytes/second).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.utils.validation import check_positive


class NodeKind(enum.Enum):
    """Role of a node in the communication graph."""

    ROOT_COMPLEX = "root_complex"
    SWITCH = "switch"
    GPU = "gpu"
    GPU_MEM = "gpu_mem"
    CPU_MEM = "cpu_mem"
    SSD = "ssd"
    NIC = "nic"

    @property
    def is_storage(self) -> bool:
        """Whether nodes of this kind hold vertex embeddings."""
        return self in (NodeKind.GPU_MEM, NodeKind.CPU_MEM, NodeKind.SSD)

    @property
    def is_compute(self) -> bool:
        """Whether nodes of this kind consume embeddings (GPUs)."""
        return self is NodeKind.GPU

    @property
    def is_interconnect(self) -> bool:
        """Whether nodes of this kind only forward traffic.

        NICs count: a NIC-attached storage shelf (NVMe-oF style) is a
        forwarding stage between its drives and the PCIe fabric.
        """
        return self in (NodeKind.ROOT_COMPLEX, NodeKind.SWITCH, NodeKind.NIC)


class LinkKind(enum.Enum):
    """Physical technology of a link; used for reporting and profiling."""

    PCIE = "pcie"
    QPI = "qpi"
    NVLINK = "nvlink"
    MEMORY = "memory"
    INTERNAL = "internal"


@dataclass(frozen=True)
class Node:
    """A vertex of the communication graph.

    Attributes
    ----------
    name:
        Unique identifier, e.g. ``"gpu0"`` or ``"rc0"``.
    kind:
        Role taxonomy entry.
    egress_bw:
        Device-imposed ceiling on data the node can *serve* (bytes/s);
        e.g. an SSD's sustained read bandwidth.  ``None`` means no
        device-level ceiling beyond its links.
    """

    name: str
    kind: NodeKind
    egress_bw: Optional[float] = None

    def __post_init__(self) -> None:
        if self.egress_bw is not None:
            check_positive("egress_bw", self.egress_bw)


@dataclass(frozen=True)
class Link:
    """A directed, capacity-constrained edge.

    ``capacity`` is the maximum sustained transfer rate in bytes/second
    for data flowing ``src -> dst``.  ``label`` carries the bus name used
    in the paper's figures (e.g. ``"bus9"``) for readable reports.
    """

    src: str
    dst: str
    capacity: float
    kind: LinkKind = LinkKind.PCIE
    label: str = ""

    def __post_init__(self) -> None:
        check_positive("capacity", self.capacity)

    @property
    def key(self) -> Tuple[str, str]:
        """The (src, dst) identity of this directed edge."""
        return (self.src, self.dst)


class Topology:
    """Mutable directed communication graph with capacity annotations."""

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        self._nodes: Dict[str, Node] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        self._succ: Dict[str, List[str]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> Node:
        """Register a node; duplicate names are an error."""
        if node.name in self._nodes:
            raise ValueError(f"duplicate node name: {node.name!r}")
        self._nodes[node.name] = node
        self._succ[node.name] = []
        return node

    def add(
        self,
        name: str,
        kind: NodeKind,
        egress_bw: Optional[float] = None,
    ) -> Node:
        """Convenience wrapper around :meth:`add_node`."""
        return self.add_node(Node(name, kind, egress_bw))

    def add_directed_link(self, link: Link) -> Link:
        """Add a single directed edge."""
        for endpoint in (link.src, link.dst):
            if endpoint not in self._nodes:
                raise KeyError(f"unknown node {endpoint!r} in link {link}")
        if link.key in self._links:
            raise ValueError(f"duplicate link {link.src}->{link.dst}")
        self._links[link.key] = link
        self._succ[link.src].append(link.dst)
        return link

    def add_link(
        self,
        a: str,
        b: str,
        capacity: float,
        kind: LinkKind = LinkKind.PCIE,
        label: str = "",
        capacity_ba: Optional[float] = None,
    ) -> Tuple[Link, Link]:
        """Add a full-duplex physical link as two directed edges.

        ``capacity_ba`` lets asymmetric links (e.g. memory channels)
        specify a different reverse-direction capacity.
        """
        fwd = self.add_directed_link(Link(a, b, capacity, kind, label))
        bwd = self.add_directed_link(
            Link(b, a, capacity if capacity_ba is None else capacity_ba, kind, label)
        )
        return fwd, bwd

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def node(self, name: str) -> Node:
        """Look up a node by name (raises ``KeyError``)."""
        return self._nodes[name]

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    @property
    def nodes(self) -> List[Node]:
        """All nodes, in insertion order."""
        return list(self._nodes.values())

    @property
    def links(self) -> List[Link]:
        """All directed links, in insertion order."""
        return list(self._links.values())

    def link(self, src: str, dst: str) -> Link:
        """The directed link ``src -> dst`` (raises ``KeyError``)."""
        return self._links[(src, dst)]

    def has_link(self, src: str, dst: str) -> bool:
        """Whether the directed link ``src -> dst`` exists."""
        return (src, dst) in self._links

    def successors(self, name: str) -> List[str]:
        """Names of nodes reachable over one outgoing link."""
        return list(self._succ[name])

    def nodes_of_kind(self, *kinds: NodeKind) -> List[Node]:
        """All nodes whose kind is one of ``kinds``."""
        wanted = set(kinds)
        return [n for n in self._nodes.values() if n.kind in wanted]

    @property
    def storage_nodes(self) -> List[Node]:
        """Nodes that hold embeddings (GPU/CPU memory, SSDs)."""
        return [n for n in self._nodes.values() if n.kind.is_storage]

    @property
    def compute_nodes(self) -> List[Node]:
        """The GPU nodes."""
        return [n for n in self._nodes.values() if n.kind.is_compute]

    @property
    def interconnect_nodes(self) -> List[Node]:
        """Root complexes and switches."""
        return [n for n in self._nodes.values() if n.kind.is_interconnect]

    def gpus(self) -> List[str]:
        """GPU node names in deterministic (sorted) order."""
        return sorted(n.name for n in self.compute_nodes)

    def ssds(self) -> List[str]:
        return sorted(n.name for n in self._nodes.values() if n.kind is NodeKind.SSD)

    # ------------------------------------------------------------------
    # algorithms
    # ------------------------------------------------------------------
    def shortest_path(
        self,
        src: str,
        dst: str,
        qpi_penalty: float = 2.0,
    ) -> Optional[List[str]]:
        """Deterministic least-cost path from ``src`` to ``dst``.

        Hop cost is 1 per link, with QPI links weighted ``qpi_penalty``
        so routing prefers staying on one socket when an equal-length
        local path exists — matching how GPU-initiated DMA actually
        routes (no dynamic multipathing on PCIe fabrics).  Ties break on
        lexicographic node order for determinism.
        """
        if src not in self._nodes or dst not in self._nodes:
            raise KeyError(f"unknown endpoint {src!r} or {dst!r}")
        if src == dst:
            return [src]
        import heapq

        dist: Dict[str, float] = {src: 0.0}
        parent: Dict[str, str] = {}
        heap: List[Tuple[float, str]] = [(0.0, src)]
        visited = set()
        while heap:
            d, u = heapq.heappop(heap)
            if u in visited:
                continue
            visited.add(u)
            if u == dst:
                break
            for v in sorted(self._succ[u]):
                link = self._links[(u, v)]
                w = qpi_penalty if link.kind is LinkKind.QPI else 1.0
                nd = d + w
                if nd < dist.get(v, float("inf")):
                    dist[v] = nd
                    parent[v] = u
                    heapq.heappush(heap, (nd, v))
        if dst not in dist:
            return None
        path = [dst]
        while path[-1] != src:
            path.append(parent[path[-1]])
        path.reverse()
        return path

    def path_links(self, path: List[str]) -> List[Link]:
        """Links traversed by a node path."""
        return [self._links[(a, b)] for a, b in zip(path, path[1:])]

    def copy(self, name: Optional[str] = None) -> "Topology":
        """Deep-enough copy (nodes/links are frozen dataclasses)."""
        out = Topology(name or self.name)
        for node in self._nodes.values():
            out.add_node(node)
        for link in self._links.values():
            out.add_directed_link(link)
        return out

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Human-readable summary of nodes and links."""
        from repro.utils.units import fmt_rate

        lines = [f"Topology {self.name!r}:"]
        for node in sorted(self._nodes.values(), key=lambda n: n.name):
            extra = (
                f" egress={fmt_rate(node.egress_bw)}" if node.egress_bw else ""
            )
            lines.append(f"  node {node.name} [{node.kind.value}]{extra}")
        seen = set()
        for link in sorted(self._links.values(), key=lambda l: l.key):
            if (link.dst, link.src) in seen:
                continue
            seen.add(link.key)
            tag = f" ({link.label})" if link.label else ""
            lines.append(
                f"  link {link.src} <-> {link.dst} "
                f"{fmt_rate(link.capacity)} [{link.kind.value}]{tag}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Topology({self.name!r}, nodes={len(self._nodes)}, "
            f"links={len(self._links)})"
        )

    def validate(self) -> None:
        """Sanity-check structural invariants; raises ``ValueError``.

        * every SSD/CPU-mem/GPU-mem node must reach at least one GPU;
        * every GPU must be reachable from at least one storage node.
        """
        gpu_names = self.gpus()
        if not gpu_names:
            raise ValueError("topology has no GPU (computation) nodes")
        for store in self.storage_nodes:
            if not any(
                self.shortest_path(store.name, g) is not None for g in gpu_names
            ):
                raise ValueError(
                    f"storage node {store.name!r} cannot reach any GPU"
                )
        for g in gpu_names:
            if not any(
                self.shortest_path(s.name, g) is not None
                for s in self.storage_nodes
            ):
                raise ValueError(f"GPU {g!r} is unreachable from all storage")


@dataclass(frozen=True)
class TopologyMask:
    """A declarative degradation of a topology: nodes that disappeared
    and capacity scale factors for the survivors.

    Used by the replanning path (:mod:`repro.runtime.replan`): the
    placement search scores each candidate on
    ``mask.apply(machine.build(placement))`` so a new data placement is
    computed for the *surviving* fabric without mutating the healthy
    machine model.  :meth:`apply` is the one place a fault degrades a
    planning network; the search's chassis network always describes
    the healthy fabric.  Every field is normalised to tuples, so two
    masks built from lists or tuples compare equal by value:
    :class:`~repro.runtime.replan.ReplanPolicy` replans only when a
    step's mask differs from the one it last planned on.

    Unknown node names are skipped leniently — strict validation
    against a concrete topology belongs to
    :class:`repro.faults.injector.FaultInjector`.
    """

    #: Node names removed entirely (their links disappear with them).
    drop_nodes: Tuple[str, ...] = ()
    #: (node name, factor in (0, 1]) scaling the node's egress ceiling.
    egress_factors: Tuple[Tuple[str, float], ...] = ()
    #: (src, dst, factor in (0, 1]) scaling one directed link.
    link_factors: Tuple[Tuple[str, str, float], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "drop_nodes", tuple(self.drop_nodes))
        object.__setattr__(
            self, "egress_factors", tuple(tuple(e) for e in self.egress_factors)
        )
        object.__setattr__(
            self, "link_factors", tuple(tuple(l) for l in self.link_factors)
        )
        for _, factor in self.egress_factors:
            if not (0.0 < factor <= 1.0):
                raise ValueError(f"egress factor must be in (0, 1], got {factor}")
        for _, _, factor in self.link_factors:
            if not (0.0 < factor <= 1.0):
                raise ValueError(f"link factor must be in (0, 1], got {factor}")

    def __bool__(self) -> bool:
        return bool(self.drop_nodes or self.egress_factors or self.link_factors)

    def apply(self, topo: Topology) -> Topology:
        """A new topology with the mask's degradations applied."""
        import dataclasses as _dc

        dropped = set(self.drop_nodes)
        egress = {name: factor for name, factor in self.egress_factors}
        links = {(src, dst): factor for src, dst, factor in self.link_factors}
        out = Topology(f"{topo.name}|masked")
        for node in topo.nodes:
            if node.name in dropped:
                continue
            factor = egress.get(node.name)
            if factor is not None and node.egress_bw is not None:
                node = _dc.replace(node, egress_bw=node.egress_bw * factor)
            out.add_node(node)
        for link in topo.links:
            if link.src in dropped or link.dst in dropped:
                continue
            factor = links.get(link.key)
            if factor is not None:
                link = _dc.replace(link, capacity=link.capacity * factor)
            out.add_directed_link(link)
        return out


def iter_physical_links(topo: Topology) -> Iterator[Link]:
    """Yield each full-duplex link once (the lexicographically first
    direction), useful for reports that treat a link as one wire."""
    seen = set()
    for link in topo.links:
        if (link.dst, link.src) in seen:
            continue
        seen.add(link.key)
        yield link
