"""Reference implementations the package's fast kernels are tested against.

They are deliberately plain: direct transcriptions of the algorithm, one
Python loop per step, kept here so a differential test can pin the
vectorized production code to them.

* max-min water-filling — :func:`max_min_rates` / :func:`progressive_fill`,
  a per-flow loop, and :func:`numpy_max_min_rates` /
  :func:`numpy_progressive_fill`, the NumPy incidence-matrix kernel
  (:func:`numpy_water_fill`) that the scalar one in
  :mod:`repro.simulator.bandwidth` equals bit for bit;
* max flow — :class:`FlowNetwork` with Edmonds–Karp and Dinic, min cut,
  and the paper's time-bisection procedure (:func:`bisect_min_time`);
  :func:`build_time_network` + :func:`bisect_min_completion_time` are
  the bisection reference for :func:`repro.core.flowmodel.min_completion_time`
  and :func:`plain_max_flow` for its namesake;
* symmetry dedupe — :func:`canonical_key` / :class:`CanonicalFilter` /
  :func:`dedupe_placements`, the enumerate-then-filter pipeline
  :func:`repro.core.symmetry.iter_canonical_placements` reproduces;
* multicommodity LP — :func:`reference_multicommodity_min_time`, the
  ``scipy.optimize.linprog`` formulation
  :func:`repro.core.mcmf.multicommodity_min_time` reproduces, and
  :func:`reference_lp_model`, the ``passModel`` arguments it hands
  HiGHS, both assembled from a topology (:func:`_build_edges`);
* DDAK — :func:`reference_ddak_place`, the NumPy-per-pool pooled
  greedy :func:`repro.core.ddak.ddak_place` reproduces as a scalar loop;
* graph construction — :func:`reference_from_edges` (``np.unique`` with
  ``return_index`` plus a stable argsort of ``src``) and
  :func:`reference_power_law_graph` (two ``rng.choice(..., p=weights)``
  draws), the builds :meth:`repro.graphs.csr.CSRGraph.from_edges` and
  :func:`repro.graphs.generators.power_law_graph` reproduce bit for bit;
* :func:`legacy_machine_a` / :func:`legacy_machine_b` — the hand-built
  chassis the compiled fabric specs must equal.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from repro.core.ddak import Bin, DataPlacement
from repro.core.flowmodel import (
    _SINK,
    _SOURCE,
    CPU_CLASS,
    SSD_CLASS,
    FlowPrediction,
    TrafficDemand,
)
from repro.core.mcmf import _COLWISE, _MINIMIZE, McfPrediction
from repro.core.placement import GPU, SSD, Chassis, Placement, SlotGroup
from repro.core.symmetry import _preimage, slot_group_symmetries
from repro.core.topology import LinkKind, NodeKind, Topology
from repro.graphs.csr import CSRGraph
from repro.hardware.machines import MachineSpec
from repro.hardware.specs import (
    A100_40GB,
    P5510,
    PCIE4_X16,
    PCIE4_X4,
    QPI_BW,
    XEON_GOLD_5320,
    XEON_GOLD_6426Y,
    CpuSpec,
)
from repro.simulator.bandwidth import (
    FairShareResult,
    Flow,
    ResourceKey,
    _check_capacities,
    _path_classes,
)
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_positive


def max_min_rates(
    flows: Sequence[Flow],
    capacities: Dict[ResourceKey, float],
    active: Optional[Sequence[int]] = None,
) -> List[float]:
    """Water-filling max-min fair rates for the active flows.

    Returns one rate per input flow; inactive flows get 0.  Flows whose
    path is empty get ``inf``.  Raises ``KeyError`` if a flow references
    an unknown resource and ``ValueError`` on non-positive capacities.
    """
    for key, cap in capacities.items():
        check_positive(f"capacity[{key!r}]", cap)
    n = len(flows)
    idx_active = list(range(n)) if active is None else list(active)
    rates = [0.0] * n
    # resource -> list of active flow indices using it
    users: Dict[ResourceKey, List[int]] = {}
    for i in idx_active:
        if flows[i].path == ():
            rates[i] = float("inf")
            continue
        for key in set(flows[i].path):
            if key not in capacities:
                raise KeyError(f"flow {i} uses unknown resource {key!r}")
            users.setdefault(key, []).append(i)

    cap_left = {key: capacities[key] for key in users}
    unfixed = {i for i in idx_active if flows[i].path != ()}
    while unfixed:
        # fair share offered by each resource to its unfixed users
        best_key, best_share = None, float("inf")
        for key, flow_ids in users.items():
            live = [i for i in flow_ids if i in unfixed]
            if not live:
                continue
            share = cap_left[key] / len(live)
            if share < best_share:
                best_share, best_key = share, key
        if best_key is None:
            # remaining flows are on resources with no contention left
            for i in unfixed:
                rates[i] = float("inf")
            break
        # fix every unfixed flow through the bottleneck at the share
        newly_fixed = [i for i in users[best_key] if i in unfixed]
        for i in newly_fixed:
            rates[i] = best_share
            unfixed.discard(i)
            for key in set(flows[i].path):
                cap_left[key] = max(0.0, cap_left[key] - best_share)
        cap_left[best_key] = 0.0
    return rates


def progressive_fill(
    flows: Sequence[Flow],
    capacities: Dict[ResourceKey, float],
    max_rounds: Optional[int] = None,
) -> FairShareResult:
    """Simulate all flows to completion under max-min fair sharing.

    Each round: compute fair rates, advance to the earliest completion,
    retire finished flows, release their bandwidth, repeat.  Runs at
    most ``len(flows)`` rounds (one flow finishes per round, minimum).
    """
    n = len(flows)
    finish = [0.0] * n
    remaining = [f.demand for f in flows]
    resource_bytes: Dict[ResourceKey, float] = {}
    peak_rates: Dict[ResourceKey, float] = {}
    active = [i for i in range(n) if remaining[i] > 0]
    # zero-demand and local flows are instantaneous
    now = 0.0
    rounds = 0
    cap_rounds = max_rounds if max_rounds is not None else n + 1
    while active:
        rounds += 1
        if rounds > cap_rounds:
            raise RuntimeError("progressive filling failed to converge")
        rates = max_min_rates(flows, capacities, active)
        # local (inf-rate) flows finish now
        next_active = []
        dt = float("inf")
        for i in active:
            if rates[i] == float("inf"):
                finish[i] = now
                remaining[i] = 0.0
            else:
                if rates[i] <= 0:
                    raise RuntimeError(
                        f"flow {i} starved (zero rate) — capacity exhausted"
                    )
                dt = min(dt, remaining[i] / rates[i])
                next_active.append(i)
        active = next_active
        if not active:
            break
        # advance to the first completion
        rate_on: Dict[ResourceKey, float] = {}
        for i in active:
            for key in set(flows[i].path):
                rate_on[key] = rate_on.get(key, 0.0) + rates[i]
        for key, r in rate_on.items():
            peak_rates[key] = max(peak_rates.get(key, 0.0), r)
            resource_bytes[key] = resource_bytes.get(key, 0.0) + r * dt
        now += dt
        still = []
        for i in active:
            remaining[i] -= rates[i] * dt
            if remaining[i] <= 1e-6:
                finish[i] = now
                remaining[i] = 0.0
            else:
                still.append(i)
        active = still

    result = FairShareResult(
        makespan=now,
        finish_times=finish,
        resource_bytes=resource_bytes,
        peak_rates=peak_rates,
    )
    result._tags = [(finish[i], flows[i].tag) for i in range(n)]
    return result


def numpy_water_fill(
    incidence: np.ndarray, capacity: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Max-min fair rate per class with ``counts[c]`` live flows in class c.

    Each iteration fixes every class through a bottleneck resource — one
    whose remaining capacity per unfixed flow is the smallest — at that
    share, so there is one iteration per distinct rate level.  Every
    class with a live flow must use at least one resource.
    """
    rates = np.zeros(incidence.shape[1])
    unfixed = counts.astype(float)  # live flows per class not yet fixed
    cap_left = capacity.copy()
    # a resource left with no unfixed user shares inf (or nan at 0/0),
    # which the nan-skipping minimum never picks
    with np.errstate(divide="ignore", invalid="ignore"):
        while unfixed.any():
            share = cap_left / (incidence @ unfixed)
            level = np.fmin.reduce(share)
            bottleneck = share == level
            fixed = (bottleneck @ incidence > 0) & (unfixed > 0)
            rates[fixed] = level
            cap_left -= incidence @ (unfixed * fixed) * level
            np.maximum(cap_left, 0.0, out=cap_left)
            cap_left[bottleneck] = 0.0
            unfixed[fixed] = 0.0
    return rates


def numpy_max_min_rates(
    flows: Sequence[Flow],
    capacities: Dict[ResourceKey, float],
    active: Optional[Sequence[int]] = None,
) -> List[float]:
    """:func:`repro.simulator.bandwidth.max_min_rates` on :func:`numpy_water_fill`."""
    _check_capacities(capacities)
    n = len(flows)
    idx = np.arange(n) if active is None else np.asarray(active, dtype=np.intp)
    index = {key: r for r, key in enumerate(capacities)}
    class_of, incidence = _path_classes(flows, index, idx)
    capacity = np.array([capacities[key] for key in index], dtype=float)
    cls = class_of[idx]
    routed = cls >= 0
    counts = np.bincount(cls[routed], minlength=incidence.shape[1])
    rates = np.zeros(n)
    rates[idx[~routed]] = np.inf
    rates[idx[routed]] = numpy_water_fill(incidence, capacity, counts)[cls[routed]]
    return rates.tolist()


def numpy_progressive_fill(
    flows: Sequence[Flow],
    capacities: Dict[ResourceKey, float],
) -> FairShareResult:
    """:func:`repro.simulator.bandwidth.progressive_fill` re-filling every
    round from scratch with :func:`numpy_water_fill`."""
    n = len(flows)
    finish = np.zeros(n)
    remaining = np.array([f.demand for f in flows], dtype=float)
    index = {key: r for r, key in enumerate(capacities)}
    resource_bytes = np.zeros(len(index))
    peak_rates = np.zeros(len(index))
    active = np.flatnonzero(remaining > 0)
    now = 0.0
    if active.size:
        _check_capacities(capacities)
        class_of, incidence = _path_classes(flows, index, active)
        capacity = np.array([capacities[key] for key in index], dtype=float)
        active = active[class_of[active] >= 0]
    rounds = 0
    while active.size:
        rounds += 1
        if rounds > n + 1:
            raise RuntimeError("progressive filling failed to converge")
        cls = class_of[active]
        counts = np.bincount(cls, minlength=incidence.shape[1])
        class_rates = numpy_water_fill(incidence, capacity, counts)
        rates = class_rates[cls]
        starved = np.flatnonzero(rates <= 0)
        if starved.size:
            raise RuntimeError(
                f"flow {active[starved[0]]} starved (zero rate) — capacity exhausted"
            )
        dt = float(np.min(remaining[active] / rates))
        # advance to the first completion
        rate_on = incidence @ (counts * class_rates)
        np.maximum(peak_rates, rate_on, out=peak_rates)
        resource_bytes += rate_on * dt
        now += dt
        remaining[active] -= rates * dt
        done = remaining[active] <= 1e-6
        finish[active[done]] = now
        active = active[~done]

    keys = list(index)
    used = np.flatnonzero(peak_rates > 0)
    result = FairShareResult(
        makespan=now,
        finish_times=finish.tolist(),
        resource_bytes={keys[r]: float(resource_bytes[r]) for r in used},
        peak_rates={keys[r]: float(peak_rates[r]) for r in used},
    )
    result._tags = [(t, f.tag) for t, f in zip(result.finish_times, flows)]
    return result


# ----------------------------------------------------------------------
# Max flow: Edmonds–Karp, Dinic, min cut, time bisection
# ----------------------------------------------------------------------
INF = float("inf")
_EPS = 1e-9
#: Demands below this many bytes are treated as zero: sub-microbyte
#: quantities are residues of float arithmetic, and the residual-graph
#: epsilon would otherwise misclassify them as unroutable.
_MIN_DEMAND = 1e-6


class FlowNetwork:
    """Directed flow network with residual bookkeeping.

    Nodes are arbitrary hashable labels, added implicitly by
    :meth:`add_edge`.  Parallel edges are kept distinct so per-edge flow
    can be reported (needed to read off per-storage-node traffic for
    DDAK).
    """

    def __init__(self) -> None:
        self._index: Dict[object, int] = {}
        self._labels: List[object] = []
        # Edge arrays: to[i], cap[i] (residual), paired edge i^1 is the
        # reverse.  adj[u] lists edge ids leaving u.
        self._to: List[int] = []
        self._cap: List[float] = []
        self._init_cap: List[float] = []
        self.adj: List[List[int]] = []

    # -- construction ---------------------------------------------------
    def node_id(self, label: object) -> int:
        """Intern a node label, creating it on first use."""
        if label not in self._index:
            self._index[label] = len(self._labels)
            self._labels.append(label)
            self.adj.append([])
        return self._index[label]

    def label(self, node_id: int) -> object:
        """The label of an interned node id."""
        return self._labels[node_id]

    @property
    def num_nodes(self) -> int:
        """Number of interned nodes."""
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        """Number of forward (capacity-bearing) edges."""
        return len(self._to) // 2

    def add_edge(self, u: object, v: object, capacity: float) -> int:
        """Add directed edge ``u -> v``; returns its edge id.

        ``capacity`` may be ``float('inf')`` for virtual edges.
        """
        if capacity < 0:
            raise ValueError(f"negative capacity {capacity!r}")
        ui, vi = self.node_id(u), self.node_id(v)
        eid = len(self._to)
        self._to.append(vi)
        self._cap.append(capacity)
        self._init_cap.append(capacity)
        self.adj[ui].append(eid)
        # reverse (residual) edge
        self._to.append(ui)
        self._cap.append(0.0)
        self._init_cap.append(0.0)
        self.adj[vi].append(eid + 1)
        return eid

    def set_capacity(self, eid: int, capacity: float) -> None:
        """Reset one edge's capacity (clears any routed flow on it)."""
        if capacity < 0:
            raise ValueError(f"negative capacity {capacity!r}")
        self._cap[eid] = capacity
        self._init_cap[eid] = capacity
        self._cap[eid ^ 1] = 0.0
        self._init_cap[eid ^ 1] = 0.0

    def reset(self) -> None:
        """Erase all routed flow, restoring initial capacities."""
        self._cap = list(self._init_cap)

    # -- inspection -----------------------------------------------------
    def flow_on(self, eid: int) -> float:
        """Flow currently routed on forward edge ``eid``."""
        return self._cap[eid ^ 1]

    def residual(self, eid: int) -> float:
        """Remaining capacity on edge ``eid``."""
        return self._cap[eid]

    def capacity_of(self, eid: int) -> float:
        """Original capacity of edge ``eid``."""
        return self._init_cap[eid]

    def edge_endpoints(self, eid: int) -> Tuple[object, object]:
        return self._labels[self._to[eid ^ 1]], self._labels[self._to[eid]]


# ----------------------------------------------------------------------
# Edmonds–Karp (BFS Ford–Fulkerson)
# ----------------------------------------------------------------------
def edmonds_karp(net: FlowNetwork, source: object, sink: object) -> float:
    """Max flow via shortest augmenting paths.  O(V E^2)."""
    s, t = net.node_id(source), net.node_id(sink)
    total = 0.0
    while True:
        parent_edge = [-1] * net.num_nodes
        parent_edge[s] = -2
        q = deque([s])
        while q and parent_edge[t] == -1:
            u = q.popleft()
            for eid in net.adj[u]:
                v = net._to[eid]
                if parent_edge[v] == -1 and net._cap[eid] > _EPS:
                    parent_edge[v] = eid
                    q.append(v)
        if parent_edge[t] == -1:
            return total
        # find bottleneck
        push = INF
        v = t
        while v != s:
            eid = parent_edge[v]
            push = min(push, net._cap[eid])
            v = net._to[eid ^ 1]
        # apply
        v = t
        while v != s:
            eid = parent_edge[v]
            net._cap[eid] -= push
            net._cap[eid ^ 1] += push
            v = net._to[eid ^ 1]
        total += push


# ----------------------------------------------------------------------
# Dinic
# ----------------------------------------------------------------------
def dinic(net: FlowNetwork, source: object, sink: object) -> float:
    """Max flow via blocking flows on level graphs.  O(V^2 E)."""
    s, t = net.node_id(source), net.node_id(sink)
    total = 0.0
    n = net.num_nodes
    while True:
        # BFS level graph
        level = [-1] * n
        level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for eid in net.adj[u]:
                v = net._to[eid]
                if level[v] < 0 and net._cap[eid] > _EPS:
                    level[v] = level[u] + 1
                    q.append(v)
        if level[t] < 0:
            return total
        # DFS blocking flow with iteration pointers
        it = [0] * n

        def dfs(u: int, pushed: float) -> float:
            if u == t:
                return pushed
            while it[u] < len(net.adj[u]):
                eid = net.adj[u][it[u]]
                v = net._to[eid]
                if net._cap[eid] > _EPS and level[v] == level[u] + 1:
                    got = dfs(v, min(pushed, net._cap[eid]))
                    if got > _EPS:
                        net._cap[eid] -= got
                        net._cap[eid ^ 1] += got
                        return got
                it[u] += 1
            return 0.0

        while True:
            pushed = dfs(s, INF)
            if pushed <= _EPS:
                break
            total += pushed


def max_flow(
    net: FlowNetwork,
    source: object,
    sink: object,
    method: str = "dinic",
) -> float:
    """Dispatch to a solver by name (``"dinic"`` or ``"edmonds_karp"``)."""
    if method == "dinic":
        return dinic(net, source, sink)
    if method == "edmonds_karp":
        return edmonds_karp(net, source, sink)
    raise ValueError(f"unknown max-flow method {method!r}")


def min_cut(net: FlowNetwork, source: object) -> List[int]:
    """Edge ids of a minimum s-t cut.

    Must be called after a max-flow run; returns the forward edges from
    the source-reachable side (in the residual graph) to the rest —
    i.e. the saturated bottleneck links.
    """
    s = net.node_id(source)
    reach: Set[int] = {s}
    q = deque([s])
    while q:
        u = q.popleft()
        for eid in net.adj[u]:
            v = net._to[eid]
            if v not in reach and net._cap[eid] > _EPS:
                reach.add(v)
                q.append(v)
    cut = []
    for eid in range(0, len(net._to), 2):
        u = net._to[eid ^ 1]
        v = net._to[eid]
        if u in reach and v not in reach and net._init_cap[eid] > _EPS:
            cut.append(eid)
    return cut


# ----------------------------------------------------------------------
# Time-bisection Ford–Fulkerson (paper's demand-feasibility procedure)
# ----------------------------------------------------------------------
def feasible_time(
    build_network,
    demands: Dict[object, float],
    time: float,
    source: object = "__source__",
    sink: object = "__sink__",
    rel_tol: float = 1e-6,
) -> bool:
    """Can all ``demands`` (bytes per sink node) complete within ``time``?

    ``build_network(time)`` must return a fresh :class:`FlowNetwork`
    where every physical edge carries ``capacity_bytes_per_s * time``
    and every demand node has an edge to ``sink`` with capacity equal to
    its demand in bytes.  Feasible iff max flow saturates total demand.
    """
    total = sum(demands.values())
    if total <= _MIN_DEMAND:
        return True
    net = build_network(time)
    got = dinic(net, source, sink)
    return got >= total * (1.0 - rel_tol)


def bisect_min_time(
    build_network,
    demands: Dict[object, float],
    t_hi: float = 1e6,
    source: object = "__source__",
    sink: object = "__sink__",
    rel_tol: float = 1e-4,
    max_iter: int = 80,
) -> float:
    """Minimum time T such that all demands are routable (bisection).

    Raises ``RuntimeError`` if even ``t_hi`` seconds is infeasible
    (disconnected demand).  Because feasibility is monotone in T the
    bisection converges geometrically; ``rel_tol`` is relative to the
    final T.
    """
    total = sum(demands.values())
    if total <= _MIN_DEMAND:
        return 0.0
    if not feasible_time(build_network, demands, t_hi, source, sink):
        raise RuntimeError(
            f"demands infeasible even in {t_hi} s — disconnected topology?"
        )
    lo, hi = 0.0, t_hi
    # exponential shrink of the initial bracket for speed
    probe = t_hi
    while probe > 1e-9:
        probe /= 16.0
        if feasible_time(build_network, demands, probe, source, sink):
            hi = probe
        else:
            lo = probe
            break
    for _ in range(max_iter):
        if hi - lo <= rel_tol * hi:
            break
        mid = 0.5 * (lo + hi)
        if feasible_time(build_network, demands, mid, source, sink):
            hi = mid
        else:
            lo = mid
    return hi


# ----------------------------------------------------------------------
# The Figure-9 time network and its bisection solver
# ----------------------------------------------------------------------
def _storage_members(topo: Topology, class_key: str) -> List[str]:
    """The storage nodes a class demand (SSD or CPU memory) may use."""
    if class_key == SSD_CLASS:
        return topo.ssds()
    return sorted(n.name for n in topo.nodes_of_kind(NodeKind.CPU_MEM))


def build_time_network(
    topo: Topology,
    demand: TrafficDemand,
    time: float,
) -> FlowNetwork:
    """The augmented network of Figure 9 with edge budgets ``cap * time``.

    Physical edges keep their direction structure; each storage node is
    split (``name/in -> name/out``) to enforce its device egress ceiling.
    Virtual edges: source -> bins (capacity = demanded bytes), GPUs ->
    sink (capacity = per-GPU demanded bytes).  Class demands route
    through a class super-node feeding every member.
    """
    net = FlowNetwork()
    storage_names = {n.name for n in topo.storage_nodes}

    def out_name(node: str) -> str:
        return f"{node}/out" if node in storage_names else node

    # A GPU cache serving a *peer* physically leaves through the owner
    # GPU's fabric ports, not at HBM speed.  The single-commodity
    # relaxation would otherwise let peer-cache demand be absorbed by
    # the owner's own sink at 1.2 TB/s; capping the HBM edge at the
    # owner's aggregate fabric egress restores the binding constraint
    # (local cache hits are excluded from demands by convention).
    gpu_fabric_egress: Dict[str, float] = {}
    for gpu in topo.gpus():
        total = 0.0
        for succ in topo.successors(gpu):
            if topo.node(succ).kind is not NodeKind.GPU_MEM:
                total += topo.link(gpu, succ).capacity
        gpu_fabric_egress[gpu] = total

    # node splitting for storage egress ceilings
    for node in topo.storage_nodes:
        egress = node.egress_bw if node.egress_bw is not None else float("inf")
        if node.kind is NodeKind.GPU_MEM:
            owner = node.name[: -len(":mem")]
            egress = min(egress, gpu_fabric_egress.get(owner, egress))
        net.add_edge(f"{node.name}/in", f"{node.name}/out", egress * time)

    # physical links (QPI carries device-to-device DMA at the reduced
    # cross-socket P2P forwarding rate; CPU-memory flows are a small
    # minority of what the predictor routes, so the cap applies globally)
    from repro.core.topology import LinkKind
    from repro.hardware.specs import QPI_P2P_BW

    for link in topo.links:
        src = out_name(link.src)
        dst = f"{link.dst}/in" if link.dst in storage_names else link.dst
        cap = link.capacity
        if link.kind is LinkKind.QPI:
            cap = min(cap, QPI_P2P_BW)
        net.add_edge(src, dst, cap * time)

    # virtual source edges per demanded bin
    per_bin = demand.per_bin()
    for bin_name, nbytes in sorted(per_bin.items()):
        if bin_name in (SSD_CLASS, CPU_CLASS):
            class_node = f"{bin_name}/class"
            net.add_edge(_SOURCE, class_node, nbytes)
            for member in _storage_members(topo, bin_name):
                net.add_edge(class_node, f"{member}/in", float("inf"))
        else:
            if bin_name not in topo:
                raise KeyError(f"demand references unknown bin {bin_name!r}")
            net.add_edge(_SOURCE, f"{bin_name}/in", nbytes)

    # virtual sink edges per GPU
    for gpu, nbytes in sorted(demand.per_gpu().items()):
        if gpu not in topo:
            raise KeyError(f"demand references unknown GPU {gpu!r}")
        net.add_edge(gpu, _SINK, nbytes)
    return net


def bisect_min_completion_time(
    topo: Topology,
    demand: TrafficDemand,
    rel_tol: float = 1e-4,
) -> FlowPrediction:
    """Minimum time to route all demands; the paper's placement score.

    Also extracts per-storage-node flows at the optimum (DDAK traffic
    targets) and the saturated links (bottleneck report).
    """
    if demand.total <= _MIN_DEMAND:
        return FlowPrediction(0.0, 0.0, {}, {})

    demands_by_sink = demand.per_gpu()

    def build(t: float) -> FlowNetwork:
        return build_time_network(topo, demand, t)

    t_star = bisect_min_time(
        build, demands_by_sink, source=_SOURCE, sink=_SINK, rel_tol=rel_tol
    )

    # Re-solve at the optimum to read off per-storage flows.
    net = build(t_star)
    dinic(net, _SOURCE, _SINK)
    storage_rate: Dict[str, float] = {}
    for eid in range(0, net.num_edges * 2, 2):
        u, v = net.edge_endpoints(eid)
        flow = net.flow_on(eid)
        if isinstance(u, str) and u.endswith("/in") and isinstance(v, str):
            node = u[: -len("/in")]
            if v == f"{node}/out" and flow > 0:
                storage_rate[node] = flow / t_star

    # Bottlenecks: the min cut *just below* the feasible time is made of
    # the physical links that prevent finishing any faster.
    bottlenecks: List[str] = []
    t_tight = t_star * (1.0 - 16.0 * rel_tol)
    if t_tight > 0:
        tight = build(t_tight)
        dinic(tight, _SOURCE, _SINK)
        for eid in min_cut(tight, _SOURCE):
            u, v = tight.edge_endpoints(eid)
            cap = tight.capacity_of(eid)
            if u == _SOURCE or v == _SINK:
                continue  # demand-limited, not a physical bottleneck
            u_s, v_s = str(u), str(v)
            if u_s.endswith("/out"):
                u_s = u_s[: -len("/out")]
            if v_s.endswith("/in"):
                v_s = v_s[: -len("/in")]
            bottlenecks.append(f"{u_s}->{v_s} ({cap / t_tight / 1e9:.1f} GB/s)")

    per_gpu_rate = {g: d / t_star for g, d in demands_by_sink.items()}
    return FlowPrediction(
        time=t_star,
        throughput=demand.total / t_star,
        per_gpu_rate=per_gpu_rate,
        storage_rate=storage_rate,
        bottlenecks=bottlenecks,
    )


def plain_max_flow(topo: Topology) -> float:
    """The unconstrained max flow of the augmented graph (bytes/s):
    source feeds every *external* storage node (CPU memory, SSDs) at its
    egress ceiling, every GPU drains to the sink unboundedly.  GPU HBM
    caches are excluded from the supply side — a GPU reading its own
    cache is not communication.  Matches the paper's base formulation;
    mostly useful for sanity checks and reports, since it ignores what
    data each tier actually holds."""
    net = FlowNetwork()
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
    return dinic(net, _SOURCE, _SINK)


# ----------------------------------------------------------------------
# DDAK pooled greedy, one NumPy candidate scan per pool
# ----------------------------------------------------------------------
def reference_ddak_place(
    bins: Sequence[Bin],
    hotness: np.ndarray,
    feature_bytes: int,
    pool_size: int = 100,
) -> DataPlacement:
    """The DDAK allocator (paper Algorithm, Section 3.3).

    ``hotness`` is per-vertex expected access counts; ``pool_size`` is
    the pooling factor n (paper fixes 100 as the balanced default).
    Raises ``ValueError`` if total bin capacity cannot hold the dataset.
    """
    check_positive("feature_bytes", feature_bytes)
    if pool_size < 1:
        raise ValueError("pool_size must be >= 1")
    hotness = np.asarray(hotness, dtype=np.float64)
    num_vertices = hotness.size
    total_needed = num_vertices * feature_bytes
    total_cap = sum(b.capacity_bytes for b in bins)
    if total_cap < total_needed:
        raise ValueError(
            f"bins hold {total_cap:.3g} B but dataset needs {total_needed:.3g} B"
        )

    order = np.argsort(-hotness, kind="stable")
    bin_of = np.full(num_vertices, -1, dtype=np.int32)

    n_bins = len(bins)
    access = np.zeros(n_bins)
    used = np.zeros(n_bins)
    cap = np.array([b.capacity_bytes for b in bins])
    traffic = np.array([max(b.traffic, 1e-12) for b in bins])
    tiers = np.array([b.tier for b in bins])
    tier_levels = sorted(set(int(t) for t in tiers))
    # deterministic tie-break within a tier: traffic desc, then index
    tie_rank = np.lexsort((np.arange(n_bins), -traffic))
    tie_order = np.empty(n_bins, dtype=np.int64)
    tie_order[tie_rank] = np.arange(n_bins)

    def pick(candidates: np.ndarray, add_hot: float, add_bytes: float) -> int:
        """Prospective-priority argmin within one tier."""
        pr = (
            (access[candidates] + add_hot)
            / traffic[candidates]
            * (used[candidates] + add_bytes)
            / np.maximum(cap[candidates], 1e-12)
        )
        j = min(
            range(len(candidates)),
            key=lambda k: (pr[k], tie_order[candidates[k]]),
        )
        return int(candidates[j])

    vertex_bytes = float(feature_bytes)
    for start in range(0, num_vertices, pool_size):
        pool = order[start : start + pool_size]
        pool_bytes = pool.size * vertex_bytes
        pool_hotness = float(hotness[pool].sum())
        best = -1
        for level in tier_levels:
            candidates = np.flatnonzero(
                (tiers == level) & (used + pool_bytes <= cap)
            )
            if candidates.size:
                best = pick(candidates, pool_hotness, pool_bytes)
                break
        if best < 0:
            # no tier fits the whole pool: vertex-granular tail fill
            for v in pool:
                vb = -1
                for level in tier_levels:
                    candidates = np.flatnonzero(
                        (tiers == level) & (used + vertex_bytes <= cap)
                    )
                    if candidates.size:
                        vb = pick(candidates, float(hotness[v]), vertex_bytes)
                        break
                if vb < 0:
                    raise ValueError("all bins full during DDAK placement")
                bin_of[v] = vb
                access[vb] += float(hotness[v])
                used[vb] += vertex_bytes
            continue
        bin_of[pool] = best
        access[best] += pool_hotness
        used[best] += pool_bytes
    placement = DataPlacement(list(bins), bin_of, method=f"ddak(n={pool_size})")
    placement.validate(feature_bytes)
    return placement


# ----------------------------------------------------------------------
# Multicommodity concurrent-flow LP through scipy.optimize.linprog
# ----------------------------------------------------------------------
def storage_egress(topo: Topology) -> Dict[str, float]:
    """Each storage node's egress ceiling (bytes/s, ``inf`` when
    unbounded), in ``topo.storage_nodes`` order: its node-split edge.

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


#: edge restrictions: None = any commodity; "device" = only SSD /
#: GPU-cache commodities; "mem" = only CPU-memory commodities.
_ANY, _DEVICE, _MEM = None, "device", "mem"


def _build_edges(topo: Topology):
    """The LP's directed edge list ``(u, v, capacity, restriction)``,
    read off a topology.

    Storage nodes are split (``name/in -> name/out``) to carry their
    device egress ceiling; GPU caches are capped at the owner's fabric
    egress (peer service physically leaves through the GPU's ports).
    QPI links become *two parallel edges*: the full-rate one reserved
    for CPU-memory commodities and a reduced one for device-to-device
    DMA (the cross-socket P2P forwarding penalty the simulator also
    charges).
    """
    from repro.hardware.specs import QPI_P2P_BW

    storage = {n.name for n in topo.storage_nodes}
    edges: List[Tuple[str, str, float, Optional[str]]] = []
    for name, egress in storage_egress(topo).items():
        edges.append((f"{name}/in", f"{name}/out", float(egress), _ANY))
    for link in topo.links:
        src = f"{link.src}/out" if link.src in storage else link.src
        dst = f"{link.dst}/in" if link.dst in storage else link.dst
        cap = float(link.capacity)
        if link.kind is LinkKind.QPI:
            edges.append((src, dst, cap, _MEM))
            edges.append((src, dst, min(cap, QPI_P2P_BW), _DEVICE))
        else:
            edges.append((src, dst, cap, _ANY))
    return edges


def _commodity_kind(topo: Topology, bin_name: str) -> str:
    return (
        _MEM
        if topo.node(bin_name).kind is NodeKind.CPU_MEM
        else _DEVICE
    )


def reference_lp_model(topo: Topology, demand: TrafficDemand) -> Tuple:
    """The ``passModel`` array-overload arguments of a nonzero
    demand's LP, assembled from ``topo`` by :func:`_build_edges`:
    ``(num_col, num_row, num_nz, format, sense, offset, cost,
    col_lower, col_upper, row_lower, row_upper, start, index, value,
    integrality)``.

    :func:`repro.core.mcmf.multicommodity_min_time` builds the same
    model from the candidate's flow template and must hand HiGHS these
    arrays element for element.
    """
    unit = 1e-9
    negligible = 1e-7 * demand.total
    per_bin: Dict[str, Dict[str, float]] = {}
    for (bin_name, gpu), nbytes in demand.entries.items():
        if nbytes <= negligible:
            continue
        per_bin.setdefault(bin_name, {})[gpu] = (
            per_bin.get(bin_name, {}).get(gpu, 0.0) + nbytes * unit
        )
    commodities = sorted(per_bin)

    edges = [
        (u, v, cap * unit, restr) for u, v, cap, restr in _build_edges(topo)
    ]
    nodes = sorted({u for u, _, _, _ in edges} | {v for _, v, _, _ in edges})
    node_id = {n: i for i, n in enumerate(nodes)}
    n_edges, n_nodes, n_comm = len(edges), len(nodes), len(commodities)

    # variables: x[b * n_edges + e] >= 0, then lambda (last).  Rows: one
    # capacity row per finite edge, then conservation rows
    # ``b * n_nodes + node`` per commodity (net outflow = supply).
    n_flow = n_comm * n_edges
    n_vars = n_flow + 1
    caps = np.array([cap for _, _, cap, _ in edges])
    finite = np.isfinite(caps)
    n_ub = int(finite.sum())

    # The constraint matrix in CSC order.  Column (b, e) holds edge e's
    # capacity row (finite edges only), then its two conservation rows
    # for commodity b — outflow +1 at u, inflow -1 at v — ascending.
    u_ids = np.array([node_id[u] for u, _, _, _ in edges], dtype=np.int32)
    v_ids = np.array([node_id[v] for _, v, _, _ in edges], dtype=np.int32)
    block = n_ub + np.arange(n_comm, dtype=np.int32)[:, None] * n_nodes
    rows = np.empty((n_comm, n_edges, 3), dtype=np.int32)
    rows[:, :, 0] = np.cumsum(finite) - 1
    rows[:, :, 1] = block + np.minimum(u_ids, v_ids)
    rows[:, :, 2] = block + np.maximum(u_ids, v_ids)
    sign = np.where(u_ids < v_ids, 1.0, -1.0)
    vals = np.empty((n_comm, n_edges, 3))
    vals[:, :, 0] = 1.0
    vals[:, :, 1] = sign
    vals[:, :, 2] = -sign
    kept = np.ones((n_edges, 3), dtype=bool)
    kept[:, 0] = finite

    # lambda column: source supplies lambda * total; sinks absorb
    # lambda * D[b, g] (a handful of entries per commodity)
    lam_rows: List[int] = []
    lam_data: List[float] = []
    for b, bin_name in enumerate(commodities):
        lam_rows.append(n_ub + b * n_nodes + node_id[f"{bin_name}/in"])
        lam_data.append(-sum(per_bin[bin_name].values()))
        for gpu, nbytes in per_bin[bin_name].items():
            lam_rows.append(n_ub + b * n_nodes + node_id[gpu])
            lam_data.append(nbytes)
    lam_order = np.argsort(lam_rows, kind="stable")

    indptr = np.zeros(n_vars + 1, dtype=np.int32)
    np.cumsum(np.tile(2 + finite, n_comm), out=indptr[1:n_vars])
    indptr[n_vars] = indptr[n_flow] + len(lam_rows)
    indices = np.concatenate(
        [rows[:, kept].ravel(), np.asarray(lam_rows, dtype=np.int32)[lam_order]]
    )
    values = np.concatenate(
        [vals[:, kept].ravel(), np.asarray(lam_data)[lam_order]]
    )

    # restricted edges: zero out forbidden (commodity, edge) variables
    restrictions = np.array([restr or "" for _, _, _, restr in edges])
    kinds = np.array(
        [_commodity_kind(topo, bin_name) for bin_name in commodities]
    )
    forbidden = (restrictions[None, :] != "") & (
        restrictions[None, :] != kinds[:, None]
    )
    col_upper = np.full(n_vars, np.inf)
    col_upper[:n_flow][forbidden.ravel()] = 0.0
    n_rows = n_ub + n_comm * n_nodes
    row_lower = np.zeros(n_rows)
    row_lower[:n_ub] = -np.inf
    row_upper = np.zeros(n_rows)
    row_upper[:n_ub] = caps[finite]
    cost = np.zeros(n_vars)
    cost[-1] = -1.0
    return (
        n_vars,
        n_rows,
        len(values),
        _COLWISE,
        _MINIMIZE,
        0.0,
        cost,
        np.zeros(n_vars),
        col_upper,
        row_lower,
        row_upper,
        indptr,
        indices,
        values,
        np.zeros(n_vars, dtype=np.int32),
    )


def reference_multicommodity_min_time(
    topo: Topology,
    demand: TrafficDemand,
) -> McfPrediction:
    """Minimum completion time of a demand under optimal routing.

    Demands must reference concrete bins (no class keys); local
    (own-GPU-cache) entries should be excluded by the caller.

    The ``scipy.optimize.linprog`` formulation
    :func:`repro.core.mcmf.multicommodity_min_time` must reproduce bit
    for bit (its utilisation differs only on QPI links, where this one
    reports whichever parallel edge comes last).
    """
    if demand.total <= 0:
        return McfPrediction(scale=np.inf, time=0.0, throughput=0.0)

    # HiGHS misbehaves on byte-magnitude coefficients; work in GB.
    # lambda is invariant when demands and capacities scale together.
    unit = 1e-9

    # HiGHS zeroes matrix coefficients below ~1e-9 of the scaled
    # problem, so a commodity carrying a vanishing share of the demand
    # (a degenerate tier split like fractions=(0, 1e-9, ...)) loses its
    # lambda-column entries and makes the whole LP read as unroutable.
    # Such a commodity cannot move the concurrent-flow scale by more
    # than solver noise, so drop sub-tolerance entries up front.
    negligible = 1e-7 * demand.total

    # demand matrix: commodity = source bin
    per_bin: Dict[str, Dict[str, float]] = {}
    for (bin_name, gpu), nbytes in demand.entries.items():
        if bin_name.startswith("__"):
            raise ValueError(
                "multicommodity predictor needs concrete bins, got "
                f"{bin_name!r}"
            )
        if bin_name not in topo or gpu not in topo:
            raise KeyError(f"unknown node in demand: {bin_name!r}/{gpu!r}")
        if nbytes <= negligible:
            continue
        per_bin.setdefault(bin_name, {})[gpu] = (
            per_bin.get(bin_name, {}).get(gpu, 0.0) + nbytes * unit
        )
    commodities = sorted(per_bin)

    edges = [
        (u, v, cap * unit, restr) for u, v, cap, restr in _build_edges(topo)
    ]
    nodes = sorted({u for u, _, _, _ in edges} | {v for _, v, _, _ in edges})
    node_id = {n: i for i, n in enumerate(nodes)}
    n_edges, n_nodes, n_comm = len(edges), len(nodes), len(commodities)

    # variables: x[b * n_edges + e] >= 0, then lambda (last)
    n_vars = n_comm * n_edges + 1
    lam = n_vars - 1

    # equality: conservation per (commodity, node), assembled as one
    # COO batch (duplicate (row, col) entries sum on conversion —
    # exactly the incremental += the per-element loop used to do)
    u_ids = np.array([node_id[u] for u, _, _, _ in edges], dtype=np.int64)
    v_ids = np.array([node_id[v] for _, v, _, _ in edges], dtype=np.int64)
    b_off_nodes = np.arange(n_comm, dtype=np.int64)[:, None] * n_nodes
    cols_be = (
        np.arange(n_comm, dtype=np.int64)[:, None] * n_edges
        + np.arange(n_edges, dtype=np.int64)[None, :]
    ).ravel()
    rows = [
        (b_off_nodes + u_ids[None, :]).ravel(),  # outflow +1
        (b_off_nodes + v_ids[None, :]).ravel(),  # inflow  -1
    ]
    cols = [cols_be, cols_be]
    data = [
        np.ones(n_comm * n_edges),
        -np.ones(n_comm * n_edges),
    ]
    # lambda column: source supplies lambda * total; sinks absorb
    # lambda * D[b, g] (a handful of entries per commodity)
    lam_rows: List[int] = []
    lam_data: List[float] = []
    for b, bin_name in enumerate(commodities):
        lam_rows.append(b * n_nodes + node_id[f"{bin_name}/in"])
        lam_data.append(-sum(per_bin[bin_name].values()))
        for gpu, nbytes in per_bin[bin_name].items():
            lam_rows.append(b * n_nodes + node_id[gpu])
            lam_data.append(nbytes)
    rows.append(np.asarray(lam_rows, dtype=np.int64))
    cols.append(np.full(len(lam_rows), lam, dtype=np.int64))
    data.append(np.asarray(lam_data))
    a_eq = coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_comm * n_nodes, n_vars),
    )
    b_eq = np.zeros(n_comm * n_nodes)

    # inequality: sum over commodities of x on edge e <= cap(e)
    caps = np.array([cap for _, _, cap, _ in edges])
    finite = np.flatnonzero(np.isfinite(caps))
    ub_rows = np.tile(
        np.arange(len(finite), dtype=np.int64), n_comm
    )
    ub_cols = (
        np.arange(n_comm, dtype=np.int64)[:, None] * n_edges
        + finite[None, :]
    ).ravel()
    a_ub = coo_matrix(
        (np.ones(len(finite) * n_comm), (ub_rows, ub_cols)),
        shape=(len(finite), n_vars),
    )
    b_ub = caps[finite]

    # restricted edges: zero out forbidden (commodity, edge) variables
    bounds = [(0, None)] * n_vars
    kinds = [_commodity_kind(topo, bin_name) for bin_name in commodities]
    for e, (_, _, _, restr) in enumerate(edges):
        if restr is None:
            continue
        for b in range(n_comm):
            if kinds[b] != restr:
                bounds[b * n_edges + e] = (0, 0)

    cost = np.zeros(n_vars)
    cost[lam] = -1.0
    res = linprog(
        cost,
        A_ub=a_ub.tocsr(),
        b_ub=b_ub,
        A_eq=a_eq.tocsr(),
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"multicommodity LP failed: {res.message}")
    scale = float(res.x[lam])
    if scale <= 0:
        raise RuntimeError("demand is not routable at any positive rate")

    # per-edge totals across commodities in one reshape+sum
    flows = res.x[: n_comm * n_edges].reshape(n_comm, n_edges).sum(axis=0)
    utilisation: Dict[Tuple[str, str], float] = {}
    for e in finite:
        u, v, cap, _ = edges[e]
        flow = float(flows[e])
        u_name = u[:-4] if u.endswith("/out") else u
        v_name = v[:-3] if v.endswith("/in") else v
        utilisation[(u_name, v_name)] = min(1.0, flow / cap) if cap else 0.0

    time_s = 1.0 / scale
    return McfPrediction(
        scale=scale,
        time=time_s,
        throughput=demand.total * scale,
        utilisation=utilisation,
    )


# ----------------------------------------------------------------------
# Enumerate-then-filter symmetry dedupe
# ----------------------------------------------------------------------
def canonical_key(
    placement: Placement, symmetries: Sequence[Dict[str, str]]
) -> Tuple:
    """Orbit-canonical key: the lexicographically smallest count tuple
    over all chassis symmetries."""
    order = placement.chassis.group_names
    best = None
    for sym in symmetries:
        permuted = tuple(
            (
                placement.count(_preimage(sym, g), "gpu"),
                placement.count(_preimage(sym, g), "ssd"),
            )
            for g in order
        )
        if best is None or permuted < best:
            best = permuted
    return best


class CanonicalFilter:
    """Incremental symmetry dedupe: admit one placement per orbit.

    Computes the chassis automorphisms once, then filters a *stream* of
    placements — :meth:`admit` returns the orbit-canonical key the first
    time an orbit is seen and ``None`` for every later member, so the
    search engine can prune candidates as they are produced instead of
    materialising the full enumeration first.
    """

    def __init__(self, chassis: Chassis) -> None:
        self.chassis = chassis
        self.symmetries = slot_group_symmetries(chassis)
        self._seen: set = set()

    @property
    def num_admitted(self) -> int:
        """Distinct orbits admitted so far."""
        return len(self._seen)

    def key(self, placement: Placement) -> Tuple:
        """Orbit-canonical key of ``placement`` (no admission)."""
        return canonical_key(placement, self.symmetries)

    def admit(self, placement: Placement) -> "Tuple | None":
        """The canonical key if this orbit is new, else ``None``."""
        key = self.key(placement)
        if key in self._seen:
            return None
        self._seen.add(key)
        return key


def dedupe_placements(
    placements: Sequence[Placement],
    chassis: Chassis = None,
) -> List[Placement]:
    """Keep one representative per symmetry orbit, preserving input order.

    This is the paper's "isomorphic graph reduction" step; on Machine A
    it roughly halves the candidate count (the two sides are mirrors).
    """
    if not placements:
        return []
    chassis = chassis or placements[0].chassis
    filt = CanonicalFilter(chassis)
    return [p for p in placements if filt.admit(p) is not None]


# ----------------------------------------------------------------------
# Graph construction
# ----------------------------------------------------------------------
def reference_from_edges(
    num_vertices: int,
    src: Sequence[int],
    dst: Sequence[int],
    feature_dim: int = 1024,
    feature_bytes_per_elem: int = 4,
) -> CSRGraph:
    """Deduplicate by the first occurrence of each ``(src, dst)`` key, then
    stable-argsort by ``src`` into CSR order."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.size:
        key = src * num_vertices + dst
        _, keep = np.unique(key, return_index=True)
        src, dst = src[keep], dst[keep]
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    counts = np.bincount(src, minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSRGraph(indptr, dst, feature_dim, feature_bytes_per_elem)


def reference_power_law_graph(
    num_vertices: int,
    avg_degree: float,
    exponent: float = 0.8,
    seed: SeedLike = None,
    feature_dim: int = 1024,
) -> CSRGraph:
    """Chung–Lu graph with both endpoints drawn by ``Generator.choice``."""
    rng = ensure_rng(seed)
    num_edges = int(num_vertices * avg_degree)
    weights = (np.arange(1, num_vertices + 1, dtype=np.float64)) ** (-exponent)
    weights /= weights.sum()
    perm = rng.permutation(num_vertices)
    src = perm[rng.choice(num_vertices, size=num_edges, p=weights)]
    dst = perm[rng.choice(num_vertices, size=num_edges, p=weights)]
    keep = src != dst
    return reference_from_edges(
        num_vertices, src[keep], dst[keep], feature_dim=feature_dim
    )


# ----------------------------------------------------------------------
# Hand-built machines A and B
# ----------------------------------------------------------------------
def _two_socket_skeleton(chassis: Chassis, cpu: CpuSpec) -> None:
    """Common dual-socket base: two root complexes, QPI, two DRAM banks."""
    chassis.add_interconnect("rc0", NodeKind.ROOT_COMPLEX)
    chassis.add_interconnect("rc1", NodeKind.ROOT_COMPLEX)
    chassis.add_trunk("rc0", "rc1", QPI_BW, LinkKind.QPI, "qpi")
    chassis.add_memory("mem0", "rc0", cpu.mem_bytes, cpu.mem_bw)
    chassis.add_memory("mem1", "rc1", cpu.mem_bytes, cpu.mem_bw)


def legacy_machine_a(cpu: CpuSpec = XEON_GOLD_5320) -> MachineSpec:
    """Machine A via the original imperative construction path."""
    ch = Chassis("machine_a")
    _two_socket_skeleton(ch, cpu)
    ch.add_interconnect("plx0", NodeKind.SWITCH)
    ch.add_interconnect("plx1", NodeKind.SWITCH)
    ch.add_trunk("rc0", "plx0", PCIE4_X16, LinkKind.PCIE, "bus9")
    ch.add_trunk("rc1", "plx1", PCIE4_X16, LinkKind.PCIE, "bus10")
    # Four direct NVMe bays per socket (buses 1-4 on the left in Fig 1b).
    ch.add_slot_group(
        SlotGroup("rc0.bays", "rc0", 4, PCIE4_X4, frozenset({SSD}), "bus1-4")
    )
    ch.add_slot_group(
        SlotGroup("rc1.bays", "rc1", 4, PCIE4_X4, frozenset({SSD}), "bus5-8")
    )
    # Twelve slot units per switch: up to 4 dual-width GPUs plus SSDs.
    ch.add_slot_group(
        SlotGroup("plx0.slots", "plx0", 12, PCIE4_X16, frozenset({GPU, SSD}), "bus12-15")
    )
    ch.add_slot_group(
        SlotGroup("plx1.slots", "plx1", 12, PCIE4_X16, frozenset({GPU, SSD}), "bus17-20")
    )
    ch.validate()
    return MachineSpec("machine_a", ch, cpu, A100_40GB, P5510)


def legacy_machine_b(cpu: CpuSpec = XEON_GOLD_6426Y) -> MachineSpec:
    """Machine B via the original imperative construction path."""
    ch = Chassis("machine_b")
    _two_socket_skeleton(ch, cpu)
    ch.add_interconnect("plx0", NodeKind.SWITCH)
    ch.add_interconnect("plx1", NodeKind.SWITCH)
    ch.add_trunk("rc0", "plx0", PCIE4_X16, LinkKind.PCIE, "bus11")
    ch.add_trunk("plx0", "plx1", PCIE4_X16, LinkKind.PCIE, "bus16")
    # Direct x16 slots on both sockets (used by Moment's Fig-7 layout).
    ch.add_slot_group(
        SlotGroup("rc0.x16", "rc0", 2, PCIE4_X16, frozenset({GPU}), "bus10")
    )
    ch.add_slot_group(
        SlotGroup("rc1.x16", "rc1", 2, PCIE4_X16, frozenset({GPU}), "bus19")
    )
    # NVMe bays: four per socket ("SSD prioritizes the front board").
    ch.add_slot_group(
        SlotGroup("rc0.bays", "rc0", 4, PCIE4_X4, frozenset({SSD}), "bus1-4")
    )
    ch.add_slot_group(
        SlotGroup("rc1.bays", "rc1", 4, PCIE4_X4, frozenset({SSD}), "bus5-8")
    )
    # Cascaded switches, twelve slot units each.
    ch.add_slot_group(
        SlotGroup("plx0.slots", "plx0", 12, PCIE4_X16, frozenset({GPU, SSD}), "bus12-15")
    )
    ch.add_slot_group(
        SlotGroup("plx1.slots", "plx1", 12, PCIE4_X16, frozenset({GPU, SSD}), "bus17-18")
    )
    ch.validate()
    return MachineSpec("machine_b", ch, cpu, A100_40GB, P5510)
