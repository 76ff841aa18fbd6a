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
* :func:`score_batch` — the same for a batch of candidates, each
  warm-started from the first one's binding cut (the pass-1 kernel
  behind ``FlexibleMaxFlowScorer``);
* :func:`plain_max_flow` — the unconstrained max flow of the base
  formulation.

Demands may name a concrete storage node (``"ssd3"``) or the flexible
class ``SSD_CLASS`` ("any SSD"), which the flow solver splits across
drives optimally — this is how hardware placements are scored *before*
a per-vertex data placement exists.

Every max flow here is one Dinic (:meth:`FlowGraph.max_flow`).  The
time network is built **once** per candidate (a :class:`FlowTemplate`)
with every edge budget split into ``base + rate * t`` (constant bytes +
bytes/s scaled by the probed time), so

* each probe only refreshes a capacity vector with NumPy;
* the time search is **cut-parametric**, not bisection:
  ``maxflow(t)`` is a concave piecewise-linear function — the minimum
  over cuts C of ``base(C) + rate(C) * t`` — so from any infeasible
  probe the min cut's root ``(total - base(C)) / rate(C)`` is the next
  candidate time.  Iterating terminates at the **exact** breakpoint
  where the demand first fits (typically 3–5 max-flow solves), and the
  final min cut doubles as an optimality certificate: its source-side
  node set is returned as :attr:`FlowPrediction.cut_partition`.

Warm starts: any node partition with the source inside and the sink
outside is a valid cut in *any* network over the same node labels, so a
parent's binding partition (a scored neighbor placement, or the healthy
fabric before a :class:`~repro.core.topology.TopologyMask` degraded it)
gives a sound lower-bound line — the search starts at that line's root
instead of zero and usually converges in one or two solves.  The final
answer is the root of the binding cut either way, so warm and cold
solves agree exactly (see the warm-start regression tests).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.topology import LinkKind, NodeKind, Topology

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
#: the probe path (warm vs cold).  A probe that passes with a deficit
#: is also checked against its residual min cut, so a near-tied cut
#: whose root lies within the slack still gets probed.
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
    #: Source-side node labels of the binding min cut (the certificate
    #: that ``time`` is optimal); reusable as a warm-start hint when
    #: re-scoring a similar placement or a degraded fabric.
    cut_partition: Tuple[str, ...] = ()


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


class FlowGraph:
    """A flow network over interned node labels, and its Dinic.

    Forward edge ``e`` has residual slot ``2 * e`` and its reverse
    ``2 * e + 1`` (so ``eid ^ 1`` flips direction); ``adj[u]`` lists the
    residual slots leaving ``u``.  Each forward edge carries a budget
    ``base + rate * t`` (constant bytes plus bytes/s over a probed
    time); solvers take the residual capacities as a list and mutate it.
    """

    def __init__(self) -> None:
        self._index: Dict[str, int] = {}
        self.labels: List[str] = []
        self.adj: List[List[int]] = []
        self._to: List[int] = []
        self.base: List[float] = []
        self.rate: List[float] = []
        self.source = self.sink = -1

    def node_id(self, label: str) -> int:
        """Intern a node label, creating it on first use."""
        nid = self._index.get(label)
        if nid is None:
            nid = len(self.labels)
            self._index[label] = nid
            self.labels.append(label)
            self.adj.append([])
        return nid

    def add_edge(self, u: str, v: str, base: float, rate: float = 0.0) -> int:
        """Add forward edge ``u -> v``; returns its edge index."""
        ui, vi = self.node_id(u), self.node_id(v)
        slot = len(self._to)
        self._to.append(vi)
        self.adj[ui].append(slot)
        self._to.append(ui)
        self.adj[vi].append(slot + 1)
        self.base.append(base)
        self.rate.append(rate)
        return slot // 2

    def attach_terminals(self) -> None:
        """Intern the virtual source and sink.  Called once every edge
        is in, so node ids follow edge insertion order."""
        self.source = self.node_id(_SOURCE)
        self.sink = self.node_id(_SINK)

    @property
    def num_edges(self) -> int:
        return len(self.base)

    def max_flow(self, caps: List[float]) -> float:
        """Dinic from source to sink; mutates ``caps`` residuals."""
        adj, to = self.adj, self._to
        s, t = self.source, self.sink
        n = len(adj)
        inf = float("inf")
        total = 0.0
        while True:
            level = [-1] * n
            level[s] = 0
            q = deque([s])
            while q:
                u = q.popleft()
                lu = level[u] + 1
                for eid in adj[u]:
                    v = to[eid]
                    if level[v] < 0 and caps[eid] > _EPS:
                        level[v] = lu
                        q.append(v)
            if level[t] < 0:
                return total
            it = [0] * n

            def dfs(u: int, pushed: float) -> float:
                if u == t:
                    return pushed
                adj_u = adj[u]
                while it[u] < len(adj_u):
                    eid = adj_u[it[u]]
                    v = to[eid]
                    if caps[eid] > _EPS and level[v] == level[u] + 1:
                        got = dfs(v, min(pushed, caps[eid]))
                        if got > _EPS:
                            caps[eid] -= got
                            caps[eid ^ 1] += got
                            return got
                    it[u] += 1
                return 0.0

            while True:
                pushed = dfs(s, inf)
                if pushed <= _EPS:
                    break
                total += pushed

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
    ceiling.  Virtual edges: source -> bins (capacity = demanded bytes),
    GPUs -> sink (capacity = per-GPU demanded bytes).  Class demands
    route through a class super-node feeding every member.  Each edge is
    stored as ``(base_bytes, rate_bytes_per_s)`` so the capacity vector
    at any probed time is ``base + rate * t``.
    """

    def __init__(self, topo: Topology, demand: TrafficDemand) -> None:
        from repro.hardware.specs import QPI_P2P_BW

        super().__init__()
        add_edge = self.add_edge
        storage_names = {n.name for n in topo.storage_nodes}

        def out_name(node: str) -> str:
            return f"{node}/out" if node in storage_names else node

        # storage egress ceilings (node splitting); an unbounded egress
        # is a constant-infinity edge, never a scaled one (inf * t is
        # undefined at t = 0)
        self.storage_edge: Dict[str, int] = {}
        for name, egress in storage_egress(topo).items():
            if np.isfinite(egress):
                eid = add_edge(f"{name}/in", f"{name}/out", 0.0, egress)
            else:
                eid = add_edge(f"{name}/in", f"{name}/out", float("inf"), 0.0)
            self.storage_edge[name] = eid

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
        per_bin = demand.per_bin()
        for bin_name, nbytes in sorted(per_bin.items()):
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
        self.demands_by_sink = demand.per_gpu()
        for gpu, nbytes in sorted(self.demands_by_sink.items()):
            if gpu not in topo:
                raise KeyError(f"demand references unknown GPU {gpu!r}")
            add_edge(gpu, _SINK, nbytes)

        self.attach_terminals()
        self.base = np.asarray(self.base)
        self.rate = np.asarray(self.rate)
        self.total = demand.total

    # -- per-probe machinery -------------------------------------------
    def residual_caps(self, t: float) -> List[float]:
        """Fresh residual capacities at probe time ``t`` (forward edges
        interleaved with zeroed reverse edges)."""
        caps = np.zeros(2 * len(self.base))
        caps[0::2] = self.base + self.rate * t
        return caps.tolist()

    def cut_line(self, reach: Sequence[int]) -> Tuple[float, float]:
        """``(base_bytes, rate)`` of the cut induced by a node mask.

        Edge terms are accumulated in edge-id order, so the same cut
        always sums to bit-identical coefficients — warm and cold
        searches ending on the same binding cut return the same float.
        """
        to = self._to
        b = r = 0.0
        for e in range(len(self.base)):
            if reach[to[2 * e + 1]] and not reach[to[2 * e]]:
                b += self.base[e]
                r += self.rate[e]
        return b, r

    def partition_mask(
        self, partition: Iterable[str]
    ) -> Optional[bytearray]:
        """A warm-start label set as a node mask, or ``None`` if it is
        not a valid s-t partition here (labels from a different fabric
        are simply ignored; dropped nodes vanish from the mask)."""
        reach = bytearray(len(self.labels))
        for label in partition:
            nid = self._index.get(label)
            if nid is not None:
                reach[nid] = 1
        if not reach[self.source] or reach[self.sink]:
            return None
        return reach

    def warm_root(self, partition: Optional[Iterable[str]]) -> float:
        """The hint cut's root: a sound lower bound on the completion
        time (``0.0`` when the hint does not transfer)."""
        if not partition:
            return 0.0
        reach = self.partition_mask(partition)
        if reach is None:
            return 0.0
        b, r = self.cut_line(reach)
        if not np.isfinite(b) or r <= _EPS or b >= self.total:
            return 0.0
        return max(0.0, (self.total - b) / r)

    # -- result assembly ------------------------------------------------
    def prediction(
        self,
        t_star: float,
        caps: List[float],
        cut_mask: Optional[Sequence[int]],
    ) -> FlowPrediction:
        """Build the :class:`FlowPrediction` from the final feasible
        solve's residuals and the binding cut's node mask."""
        storage_rate: Dict[str, float] = {}
        for node, eid in self.storage_edge.items():
            flow = caps[2 * eid + 1]
            if flow > 0:
                storage_rate[node] = flow / t_star
        bottlenecks: List[str] = []
        partition: Tuple[str, ...] = ()
        if cut_mask is not None:
            to = self._to
            for e in range(len(self.base)):
                ui, vi = to[2 * e + 1], to[2 * e]
                if not (cut_mask[ui] and not cut_mask[vi]):
                    continue
                if ui == self.source or vi == self.sink:
                    continue  # demand-limited, not a physical bottleneck
                u_s, v_s = self.labels[ui], self.labels[vi]
                if u_s.endswith("/out"):
                    u_s = u_s[: -len("/out")]
                if v_s.endswith("/in"):
                    v_s = v_s[: -len("/in")]
                bottlenecks.append(
                    f"{u_s}->{v_s} ({self.rate[e] / 1e9:.1f} GB/s)"
                )
            partition = tuple(
                sorted(
                    self.labels[i]
                    for i in range(len(self.labels))
                    if cut_mask[i]
                )
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
            cut_partition=partition,
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


def _solve_template(
    tpl: FlowTemplate, t0: float, hint_mask: Optional[bytearray]
) -> FlowPrediction:
    """Cut-parametric search from probe ``t0`` (with ``hint_mask`` as
    the provisional binding cut when ``t0`` came from a warm hint)."""
    threshold = tpl.total * (1.0 - _FEAS_TOL)
    t = t0
    cut_mask: Optional[bytearray] = hint_mask
    for _ in range(_MAX_ITERS):
        caps = tpl.residual_caps(t)
        got = tpl.max_flow(caps)
        if got < threshold:
            t, cut_mask = _next_probe(tpl, caps, t)
            continue
        if got < tpl.total:
            # feasible only within _FEAS_TOL: a cut nearly tied with the
            # probed one may still have its root just past t, and which
            # of the two a search meets first depends on its start
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


def _solve(
    topo: Topology,
    demand: TrafficDemand,
    warm_partition: Optional[Iterable[str]],
) -> Tuple[FlowPrediction, bool]:
    """One minimum-completion-time solve, and whether it started from a
    warm (non-zero) root."""
    if demand.total <= _MIN_DEMAND:
        return FlowPrediction(0.0, 0.0, {}, {}), False
    tpl = FlowTemplate(topo, demand)
    t0 = tpl.warm_root(warm_partition)
    hint = tpl.partition_mask(warm_partition) if t0 > 0.0 else None
    return _solve_template(tpl, t0, hint), bool(t0 > 0.0)


def min_completion_time(
    topo: Topology,
    demand: TrafficDemand,
    warm_partition: Optional[Iterable[str]] = None,
) -> FlowPrediction:
    """Minimum time to route all demands; the paper's placement score.

    Returns the exact minimum completion time (no bisection slack), the
    per-storage-node flows at the optimum (DDAK traffic targets) and
    the saturated links (bottleneck report).  A ``warm_partition`` from
    a previously scored neighbor/healthy fabric only changes how fast
    the search converges, not its answer.
    """
    return _solve(topo, demand, warm_partition)[0]


def score_batch(
    jobs: Sequence[Tuple[Topology, TrafficDemand]],
    warm_partition: Optional[Iterable[str]] = None,
) -> Tuple[List[FlowPrediction], int]:
    """Score a batch of (topology, demand) candidates, warm-start chained.

    The first candidate with demand is solved seeded by
    ``warm_partition``; its binding cut then becomes the warm hint for
    every other candidate in the batch — enumeration-adjacent placements
    share most of their fabric, so the hint's root usually lands in the
    binding segment and the rest converge in one or two solves.  Every
    candidate is solved exactly as :func:`min_completion_time` solves
    it, so each result equals its solo solve.

    Returns ``(predictions, warm_starts)`` where ``warm_starts`` counts
    candidates whose search actually started from a warm (non-zero)
    root.  Zero-demand jobs yield the empty prediction.
    """
    predictions: List[FlowPrediction] = []
    warm_starts = 0
    hint, chained = warm_partition, False
    for topo, demand in jobs:
        prediction, warm = _solve(topo, demand, hint)
        predictions.append(prediction)
        warm_starts += warm
        if not chained and demand.total > _MIN_DEMAND:
            hint, chained = prediction.cut_partition or warm_partition, True
    return predictions, warm_starts


def plain_max_flow(topo: Topology) -> float:
    """The unconstrained max flow of the augmented graph (bytes/s):
    source feeds every *external* storage node (CPU memory, SSDs) at its
    egress ceiling, every GPU drains to the sink unboundedly.  GPU HBM
    caches are excluded from the supply side — a GPU reading its own
    cache is not communication.  Matches the paper's base formulation;
    mostly useful for sanity checks and reports, since it ignores what
    data each tier actually holds."""
    graph = FlowGraph()
    storage_names = {n.name for n in topo.storage_nodes}

    for node in topo.storage_nodes:
        egress = node.egress_bw if node.egress_bw is not None else float("inf")
        graph.add_edge(f"{node.name}/in", f"{node.name}/out", egress)
        if node.kind is not NodeKind.GPU_MEM:
            graph.add_edge(_SOURCE, f"{node.name}/in", egress)
    for link in topo.links:
        src = f"{link.src}/out" if link.src in storage_names else link.src
        dst = f"{link.dst}/in" if link.dst in storage_names else link.dst
        graph.add_edge(src, dst, link.capacity)
    for gpu in topo.gpus():
        graph.add_edge(gpu, _SINK, float("inf"))
    graph.attach_terminals()
    caps = [0.0] * (2 * graph.num_edges)
    caps[0::2] = graph.base
    return graph.max_flow(caps)
