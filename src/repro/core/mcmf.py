"""Multicommodity concurrent-flow predictor (LP formulation).

The single-source max-flow model (paper Section 3.2) is fast but — as a
single-commodity relaxation — cannot pin a transfer to its
(source bin, destination GPU) pair: peer-cache demand can be "absorbed"
at the owner GPU and shared-SSD demand rerouted to whichever GPU is
nearest.  For scoring placements where those pairings *are* the
bottleneck (cascaded switches, peer-heavy demand), we solve the exact
maximum concurrent flow problem as a linear program:

    maximize    lambda
    subject to  sum_b x[b, e]          <= cap(e)        for every edge e
                flow conservation of commodity b with
                net supply  lambda * D[b, g]  at GPU g

with one commodity per *source storage bin*.  Solved with
``scipy.optimize.linprog`` (HiGHS).  ``1/lambda`` for a unit demand is
the minimum completion time; routing is optimal, so this is still an
optimistic model relative to the fixed-path fair-share simulator — by
design (prediction vs. measurement, Fig. 13).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from repro.core.flowmodel import TrafficDemand, storage_egress
from repro.core.topology import LinkKind, NodeKind, Topology


@dataclass
class McfPrediction:
    """Outcome of the multicommodity concurrent-flow LP."""

    #: Max concurrent-flow multiplier for the given demand.
    scale: float
    #: Minimum completion time for the demand as given (seconds).
    time: float
    #: Aggregate demand bytes / time (bytes/s).
    throughput: float
    #: Edge utilisation at the optimum, (src, dst) -> fraction in [0,1].
    utilisation: Dict[Tuple[str, str], float] = field(default_factory=dict)

    def bottlenecks(self, threshold: float = 0.999) -> List[Tuple[str, str]]:
        """Saturated edges at the optimum."""
        return [e for e, u in self.utilisation.items() if u >= threshold]


#: edge restrictions: None = any commodity; "device" = only SSD /
#: GPU-cache commodities; "mem" = only CPU-memory commodities.
_ANY, _DEVICE, _MEM = None, "device", "mem"


def _build_edges(topo: Topology):
    """Directed edge list ``(u, v, capacity, restriction)``.

    Storage nodes are split (``name/in -> name/out``) to carry their
    device egress ceiling; GPU caches are capped at the owner's fabric
    egress (peer service physically leaves through the GPU's ports).
    QPI links become *two parallel edges*: the full-rate one reserved
    for CPU-memory commodities and a reduced one for device-to-device
    DMA (the cross-socket P2P forwarding penalty the simulator also
    charges).
    """
    storage = {n.name for n in topo.storage_nodes}
    edges: List[Tuple[str, str, float, Optional[str]]] = []

    for name, egress in storage_egress(topo).items():
        edges.append((f"{name}/in", f"{name}/out", float(egress), _ANY))
    from repro.hardware.specs import QPI_P2P_BW

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


def multicommodity_min_time(
    topo: Topology,
    demand: TrafficDemand,
) -> McfPrediction:
    """Minimum completion time of a demand under optimal routing.

    Demands must reference concrete bins (no class keys); local
    (own-GPU-cache) entries should be excluded by the caller.
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
