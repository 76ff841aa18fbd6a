"""Throughput prediction via max flow (paper Section 3.2).

Builds the paper's augmented single-source single-sink network (Figure
9) from a runtime :class:`~repro.core.topology.Topology` plus a *traffic
demand* (bytes each GPU must receive from each storage bin), and
answers:

* :func:`min_completion_time` — the paper's placement score: the
  minimum time T in which every demand can be routed when each physical
  edge carries ``capacity * T`` bytes, with per-storage-node optimal
  flows (the ``Bin_traffic`` input of DDAK, Section 3.3) and the
  saturated links;
* :func:`solve_template` — the same search on a prebuilt
  :class:`FlowTemplate` (pass 1 solves each candidate's
  :meth:`ChassisNetwork.template` with it);
* :func:`plain_max_flow` — the unconstrained max flow of the base
  formulation.

Demands may name a concrete storage node (``"ssd3"``) or the flexible
class ``SSD_CLASS`` ("any SSD"), which the flow solver splits across
drives optimally — this is how hardware placements are scored *before*
a per-vertex data placement exists.

Every max flow here is one Dinic (:meth:`FlowGraph.max_flow`, an
explicit-stack DFS over edge arrays).  A placement search builds its
time network **once**: a :class:`ChassisNetwork` populates every slot
group of the chassis up to the device pool, and each candidate
placement becomes a capacity vector over it — a :class:`FlowTemplate`
holding only the edges of occupied slots, in the order
:meth:`FlowTemplate.from_topology` would add them for that placement's
topology.  Every edge budget is split into ``base + rate * t``
(constant bytes + bytes/s scaled by the probed time), so

* each probe only refreshes a capacity vector with NumPy;
* the time search is **cut-parametric**, not bisection:
  ``maxflow(t)`` is a concave piecewise-linear function — the minimum
  over cuts C of ``base(C) + rate(C) * t`` — so from any infeasible
  probe the min cut's root ``(total - base(C)) / rate(C)`` is the next
  candidate time.  Iterating terminates at the **exact** breakpoint
  where the demand first fits (typically 3–5 max-flow solves), and the
  final min cut doubles as an optimality certificate: its crossing
  physical edges are the reported bottlenecks.

Every solve starts at t = 0 and depends only on its own network, so a
candidate's score, rates and bottlenecks are those of its solo solve.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.placement import GPU, SSD, Placement
from repro.core.topology import LinkKind, NodeKind, Topology, TopologyMask

if TYPE_CHECKING:  # pragma: no cover - type hints only, avoids import cycle
    from repro.hardware.machines import MachineSpec

#: Flexible demand keys: "serve this from whichever member is best".
SSD_CLASS = "__ssd_class__"
CPU_CLASS = "__cpu_class__"

_SOURCE = "__source__"
_SINK = "__sink__"

#: Residual capacities at or below this are treated as saturated.
_EPS = 1e-9
#: Demands below this many bytes are treated as zero: sub-microbyte
#: quantities are residues of float arithmetic, and the residual-graph
#: epsilon would otherwise misclassify them as unroutable.
_MIN_DEMAND = 1e-6
#: Feasibility slack.  Cut-root probes land exactly on breakpoints,
#: where the max flow matches the binding cut's value to float
#: accumulation error (~1e-14 relative).  A loose slack would let a
#: probe *below* the true breakpoint pass, making the answer depend on
#: the probe path.  A probe that passes with a deficit is also checked
#: against its residual min cut, so a near-tied cut whose root lies
#: within the slack still gets probed.
_FEAS_TOL = 1e-12
#: Ceiling on the completion time — a root beyond this means the demand
#: is disconnected.
_T_HI = 1e6
#: Cut-root iterations before giving up (each one strictly advances the
#: probe to a later breakpoint of a piecewise-linear function whose
#: breakpoint count is bounded by the number of distinct cuts met —
#: in practice 3–5; 64 is a float-safety backstop).
_MAX_ITERS = 64


@dataclass
class TrafficDemand:
    """Bytes each GPU must pull from each storage bin.

    ``entries[(bin, gpu)] = bytes`` where ``bin`` is a storage node name
    or one of the class keys.  Local GPU-cache hits should be *excluded*
    by the caller (HBM reads are effectively free); peer-GPU cache
    reads are included with the owner's ``gpuN:mem`` node as the bin.
    """

    entries: Dict[Tuple[str, str], float] = field(default_factory=dict)

    def add(self, bin_name: str, gpu: str, nbytes: float) -> None:
        """Accumulate ``nbytes`` of demand for ``(bin, gpu)``."""
        if nbytes < 0:
            raise ValueError("demand bytes must be >= 0")
        if nbytes == 0:
            return
        key = (bin_name, gpu)
        self.entries[key] = self.entries.get(key, 0.0) + nbytes

    @property
    def total(self) -> float:
        """Sum of all demanded bytes."""
        return sum(self.entries.values())

    def per_gpu(self) -> Dict[str, float]:
        """Demanded bytes aggregated per GPU."""
        out: Dict[str, float] = {}
        for (_, gpu), v in self.entries.items():
            out[gpu] = out.get(gpu, 0.0) + v
        return out

    def per_bin(self) -> Dict[str, float]:
        """Demanded bytes aggregated per storage bin."""
        out: Dict[str, float] = {}
        for (bin_name, _), v in self.entries.items():
            out[bin_name] = out.get(bin_name, 0.0) + v
        return out

    def scaled(self, factor: float) -> "TrafficDemand":
        """A copy with every entry multiplied by ``factor``."""
        return TrafficDemand(
            {k: v * factor for k, v in self.entries.items()}
        )


@dataclass
class FlowPrediction:
    """Result of the minimum-completion-time search."""

    #: Minimum completion time for the demand (seconds).
    time: float
    #: Aggregate GPU inlet rate at that time (bytes/s).
    throughput: float
    #: Per-GPU inlet rate (bytes/s), demand/time per GPU.
    per_gpu_rate: Dict[str, float]
    #: Optimal bytes served by each concrete storage node (the DDAK
    #: ``Bin_traffic`` targets), normalised to bytes/s.
    storage_rate: Dict[str, float]
    #: Human-readable saturated links at the optimum (bottlenecks).
    bottlenecks: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class EgressCeiling:
    """A placement-independent lower bound on every candidate's t*.

    For a set S of flexible classes, the node set {source} ∪ {S's class
    nodes} ∪ {``m/in`` for every member m of S} is a cut of every
    candidate's network.  Its constant part is the demand of the bins
    outside S; its rate part is the members' split edges, each of which
    is at most the member's largest egress over all slots.  The root of
    that line bounds t* from below; :attr:`time` is the largest such
    root over S, summed in :meth:`FlowTemplate.cut_line`'s edge order,
    so a candidate bound by this very cut solves to the same float.
    """

    #: The bound (seconds).
    time: float
    #: The binding cut, e.g. ``"SSD egress, 8 × 6.0 GB/s"``.
    cut: str


#: Bound-report names of the flexible classes.
_CLASS_LABELS = {CPU_CLASS: "CPU-memory", SSD_CLASS: "SSD"}


def _egress_ceiling(
    per_bin: Sequence[Tuple[str, float]],
    total: float,
    members: Dict[str, List[float]],
) -> Optional[EgressCeiling]:
    """The :class:`EgressCeiling` of a demand, or ``None`` when it is
    zero or names no class.  ``per_bin`` is the demand by sorted bin
    name; ``members`` maps each class, in split-edge order (CPU
    memories' splits precede every slot's), to its surviving members'
    largest egress, in edge order."""
    if total <= _MIN_DEMAND:
        return None
    classes = [name for name, _ in per_bin if name in members]
    best: Optional[EgressCeiling] = None
    for mask in range(1, 1 << len(classes)):
        subset = {c for i, c in enumerate(classes) if mask >> i & 1}
        # left-to-right sums, as cut_line adds them (sum() would
        # compensate on Python >= 3.12)
        b = r = 0.0
        for bin_name, nbytes in per_bin:
            if bin_name not in subset:
                b += nbytes
        for cls, egresses in members.items():
            if cls in subset:
                for egress in egresses:
                    r += egress
        if not (np.isfinite(r) and r > _EPS and b < total):
            continue
        t = (total - b) / r
        if best is None or t > best.time:
            parts = []
            for cls, egresses in members.items():
                if cls in subset:
                    counts = Counter(egresses)
                    terms = " + ".join(
                        f"{k} × {egress / 1e9:.1f}" for egress, k in counts.items()
                    )
                    parts.append(f"{_CLASS_LABELS[cls]} egress, {terms} GB/s")
            best = EgressCeiling(t, "; ".join(parts))
    return best


def _storage_members(topo: Topology, class_key: str) -> List[str]:
    if class_key == SSD_CLASS:
        return topo.ssds()
    if class_key == CPU_CLASS:
        return sorted(
            n.name for n in topo.nodes_of_kind(NodeKind.CPU_MEM)
        )
    raise KeyError(class_key)


def storage_egress(topo: Topology) -> Dict[str, float]:
    """Each storage node's egress ceiling (bytes/s, ``inf`` when
    unbounded), in ``topo.storage_nodes`` order — the node-split edge
    both predictors put between ``name/in`` and ``name/out``.

    A GPU cache serving a *peer* physically leaves through the owner
    GPU's fabric ports, not at HBM speed.  The single-commodity
    relaxation would otherwise let peer-cache demand be absorbed by the
    owner's own sink at 1.2 TB/s; capping the cache at the owner's
    aggregate fabric egress restores the binding constraint (local
    cache hits are excluded from demands by convention).
    """
    gpu_fabric_egress: Dict[str, float] = {}
    for gpu in topo.gpus():
        total = 0.0
        for succ in topo.successors(gpu):
            if topo.node(succ).kind is not NodeKind.GPU_MEM:
                total += topo.link(gpu, succ).capacity
        gpu_fabric_egress[gpu] = total
    ceilings: Dict[str, float] = {}
    for node in topo.storage_nodes:
        egress = node.egress_bw if node.egress_bw is not None else float("inf")
        if node.kind is NodeKind.GPU_MEM:
            owner = node.name[: -len(":mem")]
            egress = min(egress, gpu_fabric_egress.get(owner, egress))
        ceilings[node.name] = egress
    return ceilings


class _EdgeList:
    """Interns node labels and collects edges as parallel lists."""

    def __init__(self) -> None:
        self._index: Dict[str, int] = {}
        self.labels: List[str] = []
        self.tails: List[int] = []
        self.heads: List[int] = []
        self.base: List[float] = []
        self.rate: List[float] = []

    def node_id(self, label: str) -> int:
        """Intern a node label, creating it on first use."""
        nid = self._index.get(label)
        if nid is None:
            nid = len(self.labels)
            self._index[label] = nid
            self.labels.append(label)
        return nid

    def add_edge(self, u: str, v: str, base: float, rate: float = 0.0) -> int:
        """Add forward edge ``u -> v``; returns its edge index."""
        self.tails.append(self.node_id(u))
        self.heads.append(self.node_id(v))
        self.base.append(base)
        self.rate.append(rate)
        return len(self.base) - 1

    def add_split(self, name: str, egress: float) -> int:
        """Split storage node ``name`` (``name/in -> name/out``) at its
        egress ceiling.  An unbounded egress is a constant-infinity
        edge, never a scaled one (``inf * t`` is undefined at t = 0)."""
        if np.isfinite(egress):
            return self.add_edge(f"{name}/in", f"{name}/out", 0.0, egress)
        return self.add_edge(f"{name}/in", f"{name}/out", float("inf"), 0.0)


class FlowGraph:
    """A flow network as edge arrays over labelled nodes, and its Dinic.

    Edge ``e`` runs ``tails[e] -> heads[e]``; its forward residual slot
    is ``2 * e`` and its reverse ``2 * e + 1`` (so ``eid ^ 1`` flips
    direction), and ``adj[u]`` lists the residual slots leaving ``u`` in
    edge order.  Dinic's augmenting paths depend only on that order,
    never on node ids.  Solvers take the residual capacities as a list
    and mutate it.
    """

    def __init__(
        self,
        labels: Sequence[Optional[str]],
        tails: np.ndarray,
        heads: np.ndarray,
        source: int,
        sink: int,
    ) -> None:
        self.labels = labels
        self.tails = np.asarray(tails, dtype=np.intp)
        self.heads = np.asarray(heads, dtype=np.intp)
        ends = np.empty((len(self.tails), 2), dtype=np.intp)
        ends[:, 0] = self.heads
        ends[:, 1] = self.tails
        self._to: List[int] = ends.ravel().tolist()
        adj: List[List[int]] = [[] for _ in labels]
        for slot, u in enumerate(ends[:, ::-1].ravel().tolist()):
            adj[u].append(slot)
        self.adj = adj
        self.source = source
        self.sink = sink

    @property
    def num_edges(self) -> int:
        return len(self.tails)

    def max_flow(self, caps: List[float]) -> float:
        """Dinic from source to sink; mutates ``caps`` residuals.

        The blocking-flow search is an explicit-stack DFS, so network
        depth is not bounded by the interpreter's recursion limit.  It
        finds the augmenting paths the textbook recursive DFS finds, in
        the same order: after an augmentation it resumes at the tail of
        the first saturated edge, where a restart from the source would
        arrive again.  The level graph stops growing once the sink is
        labelled and a dead end is dropped from it for the rest of the
        phase; both only spare walks that cannot reach the sink.
        """
        adj, to = self.adj, self._to
        s, t = self.source, self.sink
        n = len(adj)
        eps = _EPS
        total = 0.0
        while True:
            level = [-1] * n
            level[s] = 0
            queue = [s]
            for u in queue:
                lu = level[u] + 1
                for eid in adj[u]:
                    v = to[eid]
                    if level[v] < 0 and caps[eid] > eps:
                        level[v] = lu
                        queue.append(v)
                if level[t] >= 0:
                    break
            if level[t] < 0:
                return total
            it = [0] * n
            path: List[int] = []
            u = s
            while True:
                if u == t:
                    pushed = min([caps[eid] for eid in path])
                    for eid in path:
                        caps[eid] -= pushed
                        caps[eid ^ 1] += pushed
                    total += pushed
                    for depth, eid in enumerate(path):
                        if caps[eid] <= eps:
                            del path[depth:]
                            u = to[eid ^ 1]
                            break
                    continue
                adj_u = adj[u]
                i, end, want = it[u], len(adj_u), level[u] + 1
                while i < end:
                    eid = adj_u[i]
                    if level[to[eid]] == want and caps[eid] > eps:
                        break
                    i += 1
                it[u] = i
                if i < end:
                    path.append(eid)
                    u = to[eid]
                elif u == s:
                    break
                else:
                    level[u] = -1  # a dead end stays one this phase
                    u = to[path.pop() ^ 1]
                    it[u] += 1

    def reachable(self, caps: List[float]) -> bytearray:
        """Source-reachable node mask in the residual graph."""
        adj, to = self.adj, self._to
        reach = bytearray(len(adj))
        reach[self.source] = 1
        stack = [self.source]
        while stack:
            u = stack.pop()
            for eid in adj[u]:
                v = to[eid]
                if not reach[v] and caps[eid] > _EPS:
                    reach[v] = 1
                    stack.append(v)
        return reach


class FlowTemplate(FlowGraph):
    """One candidate's time-parametric augmented network (Figure 9).

    Physical edges keep their direction structure; each storage node is
    split (``name/in -> name/out``) to enforce its device egress
    ceiling, and those split edges come first, one per name in
    ``storage``.  Virtual edges: source -> bins (capacity = demanded
    bytes), GPUs -> sink (capacity = per-GPU demanded bytes).  Class
    demands route through a class super-node feeding every member.
    Each edge is stored as ``(base_bytes, rate_bytes_per_s)`` so the
    capacity vector at any probed time is ``base + rate * t``.

    Built from a :class:`~repro.core.topology.Topology` by
    :meth:`from_topology`, or per placement by :class:`ChassisNetwork`.
    """

    def __init__(
        self,
        labels: Sequence[Optional[str]],
        tails: np.ndarray,
        heads: np.ndarray,
        source: int,
        sink: int,
        base: np.ndarray,
        rate: np.ndarray,
        storage: Sequence[str],
        demands_by_sink: Dict[str, float],
        total: float,
    ) -> None:
        super().__init__(labels, tails, heads, source, sink)
        self.base = np.asarray(base, dtype=float)
        self.rate = np.asarray(rate, dtype=float)
        self._base_list: List[float] = self.base.tolist()
        self._rate_list: List[float] = self.rate.tolist()
        self.storage = storage
        self.demands_by_sink = demands_by_sink
        self.total = total

    @classmethod
    def from_topology(
        cls, topo: Topology, demand: TrafficDemand
    ) -> "FlowTemplate":
        """The network of one topology and demand.

        Edge order: storage splits in ``topo.storage_nodes`` order,
        links in ``topo.links`` order, source/class edges by sorted bin
        name, sink edges by sorted GPU name.
        """
        from repro.hardware.specs import QPI_P2P_BW

        net = _EdgeList()
        add_edge = net.add_edge
        storage_names = {n.name for n in topo.storage_nodes}

        def out_name(node: str) -> str:
            return f"{node}/out" if node in storage_names else node

        # storage egress ceilings (node splitting)
        egress = storage_egress(topo)
        for name, ceiling in egress.items():
            net.add_split(name, ceiling)

        # physical links (QPI carries device-to-device DMA at the
        # reduced cross-socket P2P forwarding rate; CPU-memory flows are
        # a small minority of what the predictor routes, so the cap
        # applies globally)
        for link in topo.links:
            src = out_name(link.src)
            dst = f"{link.dst}/in" if link.dst in storage_names else link.dst
            cap = link.capacity
            if link.kind is LinkKind.QPI:
                cap = min(cap, QPI_P2P_BW)
            add_edge(src, dst, 0.0, cap)

        # virtual source edges per demanded bin
        for bin_name, nbytes in sorted(demand.per_bin().items()):
            if bin_name in (SSD_CLASS, CPU_CLASS):
                class_node = f"{bin_name}/class"
                add_edge(_SOURCE, class_node, nbytes)
                for member in _storage_members(topo, bin_name):
                    add_edge(class_node, f"{member}/in", float("inf"))
            else:
                if bin_name not in topo:
                    raise KeyError(
                        f"demand references unknown bin {bin_name!r}"
                    )
                add_edge(_SOURCE, f"{bin_name}/in", nbytes)

        # virtual sink edges per GPU
        demands_by_sink = demand.per_gpu()
        for gpu, nbytes in sorted(demands_by_sink.items()):
            if gpu not in topo:
                raise KeyError(f"demand references unknown GPU {gpu!r}")
            add_edge(gpu, _SINK, nbytes)

        return cls(
            net.labels,
            net.tails,
            net.heads,
            net.node_id(_SOURCE),
            net.node_id(_SINK),
            net.base,
            net.rate,
            list(egress),
            demands_by_sink,
            demand.total,
        )

    # -- per-probe machinery -------------------------------------------
    def residual_caps(self, t: float) -> List[float]:
        """Fresh residual capacities at probe time ``t`` (forward edges
        interleaved with zeroed reverse edges)."""
        caps = np.zeros(2 * len(self.base))
        caps[0::2] = self.base + self.rate * t
        return caps.tolist()

    def _crossing(self, reach: bytearray) -> List[int]:
        """Edges leaving a node mask, in edge order."""
        side = np.frombuffer(reach, dtype=np.uint8)
        return np.flatnonzero(side[self.tails] > side[self.heads]).tolist()

    def cut_line(self, reach: bytearray) -> Tuple[float, float]:
        """``(base_bytes, rate)`` of the cut induced by a node mask.

        Edge terms are accumulated in edge-id order, so the same cut
        always sums to bit-identical coefficients — any search ending on
        the same binding cut returns the same float.
        """
        base, rate = self._base_list, self._rate_list
        b = r = 0.0
        for e in self._crossing(reach):
            b += base[e]
            r += rate[e]
        return b, r

    # -- result assembly ------------------------------------------------
    def prediction(
        self,
        t_star: float,
        caps: List[float],
        cut_mask: Optional[bytearray],
    ) -> FlowPrediction:
        """Build the :class:`FlowPrediction` from the final feasible
        solve's residuals and the binding cut's node mask."""
        storage_rate: Dict[str, float] = {}
        for eid, node in enumerate(self.storage):
            flow = caps[2 * eid + 1]
            if flow > 0:
                storage_rate[node] = flow / t_star
        bottlenecks: List[str] = []
        if cut_mask is not None:
            labels, to = self.labels, self._to
            for e in self._crossing(cut_mask):
                ui, vi = to[2 * e + 1], to[2 * e]
                if ui == self.source or vi == self.sink:
                    continue  # demand-limited, not a physical bottleneck
                u_s, v_s = labels[ui], labels[vi]
                if u_s.endswith("/out"):
                    u_s = u_s[: -len("/out")]
                if v_s.endswith("/in"):
                    v_s = v_s[: -len("/in")]
                bottlenecks.append(
                    f"{u_s}->{v_s} ({self._rate_list[e] / 1e9:.1f} GB/s)"
                )
        per_gpu_rate = {
            g: d / t_star for g, d in self.demands_by_sink.items()
        }
        return FlowPrediction(
            time=t_star,
            throughput=self.total / t_star,
            per_gpu_rate=per_gpu_rate,
            storage_rate=storage_rate,
            bottlenecks=bottlenecks,
        )


class ChassisNetwork:
    """Pass 1's flow network for one search: Figure 9 built once.

    The network belongs to the chassis; enumeration only changes which
    slots hold devices.  This one populates every slot group up to the
    pool size (``num_gpus`` GPUs and ``num_ssds`` SSDs, as far as the
    group fits them), and :meth:`template` scores a placement as a
    capacity vector over it: the edges of occupied slots keep their
    capacity and the rest drop out, so no
    :class:`~repro.core.topology.Topology` is built per candidate.
    Device labels (``gpu0…``, ``ssd0…``) are recovered from slot rank,
    the way :func:`~repro.core.placement.build_topology` numbers
    devices, and ``mask`` degrades the result as
    :meth:`TopologyMask.apply` would.

    A template's edges come out in the order
    :meth:`FlowTemplate.from_topology` adds them for
    ``mask.apply(machine.build(placement, nvlink_pairs))``, and Dinic's
    augmenting paths depend only on that order, so both solve to
    bit-identical predictions.  Edges named by device *rank* rather
    than slot — NVLink pairs, SSD-class members, peer-cache bins and
    sink edges — follow the slot edges and get their endpoints per
    placement.  ``demand`` maps the surviving GPU labels (sorted, as
    ``Topology.gpus`` returns them) to the :class:`TrafficDemand`
    every placement is scored on.
    """

    def __init__(
        self,
        machine: "MachineSpec",
        num_gpus: int,
        num_ssds: int,
        demand: Callable[[List[str]], TrafficDemand],
        nvlink_pairs: Optional[Sequence[Tuple[int, int]]] = None,
        mask: Optional[TopologyMask] = None,
    ) -> None:
        from repro.hardware.specs import GPU_HBM_BW, NVLINK_BW, QPI_P2P_BW

        chassis = machine.chassis
        mask = mask or TopologyMask()
        dropped = set(mask.drop_nodes)
        egress_factor = dict(mask.egress_factors)
        link_factor = {(src, dst): f for src, dst, f in mask.link_factors}
        gpu_parts = dict(machine.gpu_overrides)
        ssd_parts = dict(machine.ssd_overrides)
        self.num_gpus, self.num_ssds = num_gpus, num_ssds
        net = _EdgeList()
        add_edge = net.add_edge

        def scaled(name: str, egress: float) -> float:
            factor = egress_factor.get(name)
            return egress if factor is None else egress * factor

        def link(src: str, dst: str, cap: float, qpi: bool = False) -> int:
            # a link between two fixed nodes is degraded once per search
            factor = link_factor.get((src.split("/")[0], dst.split("/")[0]))
            if factor is not None:
                cap = cap * factor
            if qpi:
                cap = min(cap, QPI_P2P_BW)
            return add_edge(src, dst, 0.0, cap)

        # -- slot edges, in build_topology's order --------------------
        # storage splits come first, then links; slot nodes get their
        # device labels per placement
        slots = []
        for group in chassis.slot_groups:
            gpu_slots = [
                f"{group.name}#gpu{k}"
                for k in range(min(group.capacity_for(GPU), num_gpus))
            ]
            ssd_slots = [
                f"{group.name}#ssd{k}"
                for k in range(min(group.capacity_for(SSD), num_ssds))
            ]
            slots.append((group, gpu_slots, ssd_slots))
        for mem in chassis.memories:
            net.add_split(mem.name, scaled(mem.name, mem.bandwidth))
        splits = []
        for group, gpu_slots, ssd_slots in slots:
            read_bw = ssd_parts.get(group.name, machine.ssd).read_bw
            splits.append(
                (
                    [net.add_split(f"{gpu}:mem", GPU_HBM_BW) for gpu in gpu_slots],
                    [net.add_split(ssd, read_bw) for ssd in ssd_slots],
                )
            )
        self._num_splits = len(net.base)
        for trunk in chassis.trunks:
            qpi = trunk.kind is LinkKind.QPI
            link(trunk.a, trunk.b, trunk.capacity, qpi)
            link(trunk.b, trunk.a, trunk.capacity, qpi)
        for mem in chassis.memories:
            link(f"{mem.name}/out", mem.attach, mem.bandwidth)
            link(mem.attach, f"{mem.name}/in", mem.bandwidth)
        # per group: (name, GPU slots, SSD slots); a GPU slot is
        # (gpu, mem/in, mem/out, mem split, uplink edge, attach), an SSD
        # slot (in, out, split)
        self._groups = []
        node = net.node_id
        for (group, gpu_slots, ssd_slots), (gpu_splits, ssd_splits) in zip(
            slots, splits
        ):
            attach = group.attach
            part = gpu_parts.get(group.name, machine.gpu)
            bw = min(group.link_bw, part.link_bw)
            gpus = []
            for gpu, mem_split in zip(gpu_slots, gpu_splits):
                uplink = add_edge(gpu, attach, 0.0, bw)
                add_edge(attach, gpu, 0.0, bw)
                add_edge(f"{gpu}:mem/out", gpu, 0.0, GPU_HBM_BW)
                add_edge(gpu, f"{gpu}:mem/in", 0.0, GPU_HBM_BW)
                gpus.append(
                    (
                        node(gpu),
                        node(f"{gpu}:mem/in"),
                        node(f"{gpu}:mem/out"),
                        mem_split,
                        uplink,
                        node(attach),
                    )
                )
            part = ssd_parts.get(group.name, machine.ssd)
            bw = min(group.link_bw, part.link_bw)
            ssds = []
            for ssd, ssd_split in zip(ssd_slots, ssd_splits):
                add_edge(f"{ssd}/out", attach, 0.0, bw)
                add_edge(attach, f"{ssd}/in", 0.0, bw)
                ssds.append((node(f"{ssd}/in"), node(f"{ssd}/out"), ssd_split))
            self._groups.append((group.name, gpus, ssds))
        self._edge_of = {
            (u, v): e for e, (u, v) in enumerate(zip(net.tails, net.heads))
        }

        # -- the labels that survive the mask, and the demand on them --
        gpu_names = sorted(
            f"gpu{r}" for r in range(num_gpus) if f"gpu{r}" not in dropped
        )
        ssd_names = sorted(
            f"ssd{r}" for r in range(num_ssds) if f"ssd{r}" not in dropped
        )
        mem_names = sorted(
            m.name for m in chassis.memories if m.name not in dropped
        )
        scoring = demand(gpu_names)
        self.total = scoring.total
        self.demands_by_sink = scoring.per_gpu()
        per_bin = sorted(scoring.per_bin().items())
        self.source, self.sink = node(_SOURCE), node(_SINK)
        for bin_name, _ in per_bin:
            if bin_name in (SSD_CLASS, CPU_CLASS):
                node(f"{bin_name}/class")
        n = len(net.labels)
        # every SSD rank can land in any group with an SSD slot
        ssd_bw = max(
            (
                ssd_parts.get(group.name, machine.ssd).read_bw
                for group, _, ssd_slots in slots
                if ssd_slots
            ),
            default=0.0,
        )
        #: Lower bound on every placement's t*; None = no stop.
        self.ceiling = _egress_ceiling(
            per_bin,
            self.total,
            {
                CPU_CLASS: [
                    scaled(mem.name, mem.bandwidth)
                    for mem in chassis.memories
                    if mem.name not in dropped
                ],
                SSD_CLASS: [
                    scaled(f"ssd{r}", ssd_bw)
                    for r in range(num_ssds)
                    if f"ssd{r}" not in dropped
                ],
            },
        )

        # a device label's node is ``n + offset + rank`` in the per-
        # placement node table (see :meth:`template`); an edge into a
        # storage label enters its "/in" node and one out of it leaves
        # its "/out" node
        into: Dict[str, int] = {}
        out_of: Dict[str, int] = {}
        for name in chassis.interconnects:
            into[name] = out_of[name] = node(name)
        for mem in chassis.memories:
            into[mem.name] = node(f"{mem.name}/in")
            out_of[mem.name] = node(f"{mem.name}/out")
        g, s = num_gpus, num_ssds
        for r in range(g):
            into[f"gpu{r}"] = out_of[f"gpu{r}"] = n + r
            into[f"gpu{r}:mem"] = n + g + r
            out_of[f"gpu{r}:mem"] = n + 2 * g + r
        for r in range(s):
            into[f"ssd{r}"] = n + 3 * g + r
            out_of[f"ssd{r}"] = n + 3 * g + s + r
        labels: List[Optional[str]] = list(net.labels)
        for _, gpu_slots, ssd_slots in self._groups:
            for slot in gpu_slots:
                labels[slot[0]] = labels[slot[1]] = labels[slot[2]] = None
            for slot in ssd_slots:
                labels[slot[0]] = labels[slot[1]] = None
        for name in dropped:
            for table in (into, out_of):
                nid = table.pop(name, None)
                if nid is not None and nid < n:
                    labels[nid] = None

        # -- rank-addressed edges, in from_topology's order -----------
        rank_edges: List[Tuple[int, int, float, float]] = []
        self._nvlink_egress: List[List[float]] = [[] for _ in range(g)]
        seen = set()
        for a, b in nvlink_pairs or ():
            if not (0 <= a < g and 0 <= b < g):
                raise ValueError(f"NVLink pair ({a},{b}) references missing GPU")
            for x, y in ((a, b), (b, a)):
                if (x, y) in seen:
                    raise ValueError(f"duplicate link gpu{x}->gpu{y}")
                seen.add((x, y))
                src, dst = f"gpu{x}", f"gpu{y}"
                if src in out_of and dst in into:
                    factor = link_factor.get((src, dst))
                    cap = NVLINK_BW if factor is None else NVLINK_BW * factor
                    rank_edges.append((out_of[src], into[dst], 0.0, cap))
                    self._nvlink_egress[x].append(cap)
        for bin_name, nbytes in per_bin:
            if bin_name in (SSD_CLASS, CPU_CLASS):
                class_node = node(f"{bin_name}/class")
                rank_edges.append((self.source, class_node, nbytes, 0.0))
                members = ssd_names if bin_name == SSD_CLASS else mem_names
                for member in members:
                    rank_edges.append(
                        (class_node, into[member], float("inf"), 0.0)
                    )
            elif bin_name in into:
                rank_edges.append((self.source, into[bin_name], nbytes, 0.0))
            else:
                raise KeyError(f"demand references unknown bin {bin_name!r}")
        for gpu, nbytes in sorted(self.demands_by_sink.items()):
            if gpu not in out_of:
                raise KeyError(f"demand references unknown GPU {gpu!r}")
            rank_edges.append((out_of[gpu], self.sink, nbytes, 0.0))

        # -- per-search arrays ----------------------------------------
        self._labels = labels
        self._alive = np.array([label is not None for label in labels])
        self._tail = np.asarray(net.tails, dtype=np.intp)
        self._head = np.asarray(net.heads, dtype=np.intp)
        self._base = np.asarray(net.base)
        self._rate = np.asarray(net.rate)
        self._rank_tail = np.array([e[0] for e in rank_edges], dtype=np.intp)
        self._rank_head = np.array([e[1] for e in rank_edges], dtype=np.intp)
        self._rank_base = np.array([e[2] for e in rank_edges], dtype=float)
        self._rank_rate = np.array([e[3] for e in rank_edges], dtype=float)
        # per-rank labels, None where the mask dropped the device, and
        # the node-table codes of the device nodes that survive
        self._gpu_labels = []
        lit = []
        for r in range(g):
            gpu, mem = f"gpu{r}", f"gpu{r}:mem"
            gpu_ok, mem_ok = gpu not in dropped, mem not in dropped
            self._gpu_labels.append(
                (
                    gpu if gpu_ok else None,
                    f"{mem}/in" if mem_ok else None,
                    f"{mem}/out" if mem_ok else None,
                )
            )
            lit += [n + r] * gpu_ok + [n + g + r, n + 2 * g + r] * mem_ok
        self._ssd_labels = []
        for r in range(s):
            ssd = f"ssd{r}"
            ssd_ok = ssd not in dropped
            self._ssd_labels.append(
                (f"{ssd}/in", f"{ssd}/out") if ssd_ok else (None, None)
            )
            lit += [n + 3 * g + r, n + 3 * g + s + r] * ssd_ok
        self._lit = np.array(lit, dtype=np.intp)
        self._node = np.arange(n + 3 * g + 2 * s, dtype=np.intp)
        self._num_nodes = n
        self._hbm = [scaled(f"gpu{r}:mem", GPU_HBM_BW) for r in range(g)]
        # degradations that name a device land on a different slot per
        # placement
        self._ssd_egress = [
            (r, egress_factor[f"ssd{r}"])
            for r in range(s)
            if f"ssd{r}" in egress_factor
        ]
        self._device_links = [
            (out_of[src], into[dst], factor)
            for (src, dst), factor in link_factor.items()
            if src in out_of and dst in into and max(out_of[src], into[dst]) >= n
        ]

    def template(self, placement: Placement) -> Optional[FlowTemplate]:
        """``placement``'s network as edge arrays, or ``None`` when the
        demand is zero.  ``placement`` must hold this network's pool."""

        if (placement.num_gpus, placement.num_ssds) != (
            self.num_gpus,
            self.num_ssds,
        ):
            raise ValueError(
                f"{placement!r} does not hold {self.num_gpus} GPUs / "
                f"{self.num_ssds} SSDs"
            )
        if self.total <= _MIN_DEMAND:
            return None
        labels = list(self._labels)
        gpu_slots, ssd_slots = [], []
        for name, gpus, ssds in self._groups:
            gpu_slots += gpus[: placement.count(name, GPU)]
            ssd_slots += ssds[: placement.count(name, SSD)]
        for slot, names in zip(gpu_slots, self._gpu_labels):
            labels[slot[0]], labels[slot[1]], labels[slot[2]] = names
        for slot, names in zip(ssd_slots, self._ssd_labels):
            labels[slot[0]], labels[slot[1]] = names
        # node table: fixed nodes, then each device role by rank
        node = self._node.copy()
        node[self._num_nodes :] = [
            slot[role] for role in range(3) for slot in gpu_slots
        ] + [slot[role] for role in range(2) for slot in ssd_slots]
        alive = self._alive.copy()
        alive[node[self._lit]] = True
        rate = self._rate.copy()
        for u, v, factor in self._device_links:
            e = self._edge_of.get((int(node[u]), int(node[v])))
            if e is not None:
                rate[e] = self._rate[e] * factor
        for r, factor in self._ssd_egress:
            e = ssd_slots[r][2]
            rate[e] = self._rate[e] * factor
        # GPU-cache egress: HBM capped at the owner's fabric egress, in
        # storage_egress's summation order
        for r, (gpu, mem_in, _, mem_split, uplink, attach) in enumerate(
            gpu_slots
        ):
            if labels[mem_in] is None:
                continue
            egress = self._hbm[r]
            if labels[gpu] is not None:
                fabric = 0.0
                if labels[attach] is not None:
                    fabric += rate[uplink]
                for cap in self._nvlink_egress[r]:
                    fabric += cap
                egress = min(egress, fabric)
            rate[mem_split] = egress
        live = np.flatnonzero(alive[self._tail] & alive[self._head])
        tails = np.concatenate((self._tail[live], node[self._rank_tail]))
        heads = np.concatenate((self._head[live], node[self._rank_head]))
        num_splits = int(np.searchsorted(live, self._num_splits))
        return FlowTemplate(
            labels,
            tails,
            heads,
            self.source,
            self.sink,
            np.concatenate((self._base[live], self._rank_base)),
            np.concatenate((rate[live], self._rank_rate)),
            [labels[u][: -len("/in")] for u in tails[:num_splits].tolist()],
            self.demands_by_sink,
            self.total,
        )


def _next_probe(
    tpl: FlowTemplate, caps: List[float], t: float
) -> Tuple[float, bytearray]:
    """After an infeasible solve at ``t``: the residual min cut's node
    mask and its root, the next probe time."""
    reach = tpl.reachable(caps)
    b, r = tpl.cut_line(reach)
    if r <= _EPS:
        raise RuntimeError(
            f"demands infeasible even in {_T_HI} s — disconnected topology?"
        )
    t_next = (tpl.total - b) / r
    if t_next > _T_HI:
        raise RuntimeError(
            f"demands infeasible even in {_T_HI} s — disconnected topology?"
        )
    if t_next <= t:  # float backstop: the root must strictly advance
        t_next = np.nextafter(t, np.inf)
    return t_next, reach


def solve_template(tpl: Optional[FlowTemplate]) -> FlowPrediction:
    """One minimum-completion-time solve (``None`` = zero demand).

    Cut-parametric search from t = 0: probe, and after an infeasible
    probe move to the residual min cut's root, until the demand fits.
    """
    if tpl is None:
        return FlowPrediction(0.0, 0.0, {}, {})
    threshold = tpl.total * (1.0 - _FEAS_TOL)
    t = 0.0
    cut_mask: Optional[bytearray] = None
    for _ in range(_MAX_ITERS):
        caps = tpl.residual_caps(t)
        got = tpl.max_flow(caps)
        if got < threshold:
            t, cut_mask = _next_probe(tpl, caps, t)
            continue
        if got < tpl.total:
            # feasible only within _FEAS_TOL: a cut nearly tied with the
            # probed one may still have its root just past t, and which
            # of the two the search meets first is down to float error
            reach = tpl.reachable(caps)
            b, r = tpl.cut_line(reach)
            if r > _EPS and (tpl.total - b) / r > t:
                t, cut_mask = (tpl.total - b) / r, reach
                continue
        return tpl.prediction(t, caps, cut_mask)
    raise RuntimeError(
        f"cut-parametric time search did not converge in {_MAX_ITERS} "
        "iterations"
    )


def min_completion_time(
    topo: Topology, demand: TrafficDemand
) -> FlowPrediction:
    """Minimum time to route all demands; the paper's placement score.

    Returns the exact minimum completion time (no bisection slack), the
    per-storage-node flows at the optimum (DDAK traffic targets) and
    the saturated links (bottleneck report).
    """
    tpl = None
    if demand.total > _MIN_DEMAND:
        tpl = FlowTemplate.from_topology(topo, demand)
    return solve_template(tpl)


def plain_max_flow(topo: Topology) -> float:
    """The unconstrained max flow of the augmented graph (bytes/s):
    source feeds every *external* storage node (CPU memory, SSDs) at its
    egress ceiling, every GPU drains to the sink unboundedly.  GPU HBM
    caches are excluded from the supply side — a GPU reading its own
    cache is not communication.  Matches the paper's base formulation;
    mostly useful for sanity checks and reports, since it ignores what
    data each tier actually holds."""
    net = _EdgeList()
    storage_names = {n.name for n in topo.storage_nodes}

    for node in topo.storage_nodes:
        egress = node.egress_bw if node.egress_bw is not None else float("inf")
        net.add_edge(f"{node.name}/in", f"{node.name}/out", egress)
        if node.kind is not NodeKind.GPU_MEM:
            net.add_edge(_SOURCE, f"{node.name}/in", egress)
    for link in topo.links:
        src = f"{link.src}/out" if link.src in storage_names else link.src
        dst = f"{link.dst}/in" if link.dst in storage_names else link.dst
        net.add_edge(src, dst, link.capacity)
    for gpu in topo.gpus():
        net.add_edge(gpu, _SINK, float("inf"))
    graph = FlowGraph(
        net.labels, net.tails, net.heads, net.node_id(_SOURCE), net.node_id(_SINK)
    )
    caps = [0.0] * (2 * graph.num_edges)
    caps[0::2] = net.base
    return graph.max_flow(caps)
