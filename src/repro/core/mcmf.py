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

with one commodity per *source storage bin*.  ``1/lambda`` for a unit
demand is the minimum completion time; routing is optimal, so this is
still an optimistic model relative to the fixed-path fair-share
simulator — by design (prediction vs. measurement, Fig. 13).

Its edges are the physical edges of the network pass 1 solves, a
:class:`~repro.core.flowmodel.FlowTemplate` (from a topology:
``FlowTemplate.from_topology(topo, demand)``), at ``base + rate``.

The LP goes straight to the HiGHS instance inside scipy
(``scipy.optimize._highspy._core._Highs``), not through
``scipy.optimize.linprog``: the matrix is assembled directly in CSC
form and the options are the ones ``linprog(method="highs")`` sets, so
HiGHS solves the model ``linprog`` would build, bit for bit, minus
scipy's validation, format conversions and dual post-processing.  The
model is handed over as arrays, through ``passModel``'s array
overload, rather than by filling a ``HighsLp`` field by field: the
same arrays reach HiGHS without a pybind conversion per field.
``linprog``'s post-solve feasibility check is kept.  A
:func:`new_lp_solver` instance is reused across LPs (one ``passModel``
each); it is neither thread-safe nor picklable, so each scoring runtime
makes its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.optimize._highspy import _core as _highs

from repro.core.flowmodel import _MIN_DEMAND, FlowTemplate, TrafficDemand


@dataclass
class McfPrediction:
    """Outcome of the multicommodity concurrent-flow LP."""

    #: Max concurrent-flow multiplier for the given demand.
    scale: float
    #: Minimum completion time for the demand as given (seconds).
    time: float
    #: Aggregate demand bytes / time (bytes/s).
    throughput: float
    #: Edge utilisation at the optimum, (src, dst) -> fraction in [0,1]
    #: (a QPI link reports the busier of its two parallel edges).
    utilisation: Dict[Tuple[str, str], float] = field(default_factory=dict)

    def bottlenecks(self, threshold: float = 0.999) -> List[Tuple[str, str]]:
        """Saturated edges at the optimum."""
        return [e for e, u in self.utilisation.items() if u >= threshold]


#: Edge restrictions: ``_ANY`` commodity; only SSD / GPU-cache
#: (``_DEVICE``) commodities; only CPU-memory (``_MEM``) commodities.
_ANY, _DEVICE, _MEM = 0, 1, 2

#: The HiGHS options ``scipy.optimize.linprog(method="highs")`` sets on
#: a fresh instance (every other option keeps its HiGHS default).
HIGHS_OPTIONS = {
    "presolve": "on",
    "highs_debug_level": _highs.HighsDebugLevel.kHighsDebugLevelNone,
    "output_flag": False,
    "log_to_console": False,
    "simplex_strategy": (
        _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    ),
}

#: HiGHS's default ``small_matrix_value``: it drops matrix coefficients
#: at or below this magnitude.
_HIGHS_SMALL_MATRIX_VALUE = 1e-9

#: The array ``passModel`` overload's matrix format and objective
#: sense, as the integers it takes.
_COLWISE = int(_highs.MatrixFormat.kColwise)
_MINIMIZE = int(_highs.ObjSense.kMinimize)

#: ``linprog``'s default ``tol`` widened the way its post-solve check
#: widens it: ``10 * sqrt(1e-9)``.
FEASIBILITY_TOL = 10 * np.sqrt(1e-9)


def _lp_edges(network: FlowTemplate):
    """The LP's edges as ``(tails, heads, capacities, restrictions)``:
    ``network``'s physical edges in edge order at ``base + rate``.  A
    QPI link is *two parallel edges*: a twin at the link's full rate
    for CPU-memory commodities, then the template's edge at the
    cross-socket P2P rate for device-to-device DMA.
    """
    n = network.num_physical
    qpi = np.fromiter(network.qpi, dtype=np.intp, count=len(network.qpi))
    full = np.fromiter(network.qpi.values(), dtype=float, count=len(qpi))
    tails, heads = network.tails[:n], network.heads[:n]
    restrictions = np.full(n, _ANY)
    restrictions[qpi] = _DEVICE
    return (
        np.insert(tails, qpi, tails[qpi]),
        np.insert(heads, qpi, heads[qpi]),
        np.insert(network.base[:n] + network.rate[:n], qpi, full),
        np.insert(restrictions, qpi, _MEM),
    )


def new_lp_solver() -> "_highs._Highs":
    """A HiGHS instance configured with :data:`HIGHS_OPTIONS`.

    Reusable across :func:`multicommodity_min_time` calls on one thread.
    """
    highs = _highs._Highs()
    options = _highs.HighsOptions()
    for name, value in HIGHS_OPTIONS.items():
        setattr(options, name, value)
    if highs.passOptions(options) == _highs.HighsStatus.kError:
        raise RuntimeError("HiGHS rejected the linprog default options")
    return highs


def _check_solution(x, fun, row_value, col_upper, row_upper, n_ub) -> None:
    """``linprog``'s post-solve check: no NaNs, bounds within
    :data:`FEASIBILITY_TOL`, capacity slack >= -tol, |conservation
    residual| <= tol.  Columns are bounded below by 0."""
    tol = FEASIBILITY_TOL
    slack = row_upper[:n_ub] - row_value[:n_ub]
    residual = row_upper[n_ub:] - row_value[n_ub:]
    if (
        np.isnan(x).any()
        or np.isnan(fun)
        or np.isnan(row_value).any()
        or (x < -tol).any()
        or (x > col_upper + tol).any()
        or (slack < -tol).any()
        or (np.abs(residual) > tol).any()
    ):
        raise RuntimeError(
            "multicommodity LP failed: the solution does not satisfy the "
            f"constraints within the required tolerance of {tol:.2E}"
        )


def multicommodity_min_time(
    network: FlowTemplate,
    demand: TrafficDemand,
    solver: Optional["_highs._Highs"] = None,
) -> McfPrediction:
    """Minimum completion time of a demand under optimal routing over
    ``network``'s physical edges (its own demand is not read).

    Demands must reference concrete bins (no class keys); local
    (own-GPU-cache) entries should be excluded by the caller.
    ``solver`` is a :func:`new_lp_solver` instance to reuse; without
    one, a fresh instance solves this LP.  A demand of at most
    ``_MIN_DEMAND`` bytes is zero, as in pass 1.
    """
    if demand.total <= _MIN_DEMAND:
        return McfPrediction(scale=np.inf, time=0.0, throughput=0.0)

    # HiGHS misbehaves on byte-magnitude coefficients; work in GB.
    # lambda is invariant when demands and capacities scale together.
    unit = 1e-9

    # HiGHS zeroes matrix coefficients at or below its
    # ``small_matrix_value`` (1e-9: one byte in GB), and below ~1e-9 of
    # the scaled problem, so an entry carrying a vanishing share of the
    # demand (a degenerate tier split like fractions=(0, 1e-9, ...)) or
    # under one byte loses its lambda-column entries and makes the
    # whole LP read as unroutable or unbounded.  Such an entry cannot
    # move the concurrent-flow scale by more than solver noise, so drop
    # it up front; a demand with no entry left is zero.
    negligible = max(1e-7 * demand.total, _HIGHS_SMALL_MATRIX_VALUE / unit)

    tails, heads, caps, restrictions = _lp_edges(network)
    caps = caps * unit
    labels = network.labels
    u_names = [labels[u] for u in tails.tolist()]
    v_names = [labels[v] for v in heads.tolist()]
    nodes = sorted(set(u_names) | set(v_names))
    node_id = {n: i for i, n in enumerate(nodes)}

    # demand matrix: commodity = source bin
    per_bin: Dict[str, Dict[str, float]] = {}
    for (bin_name, gpu), nbytes in demand.entries.items():
        if bin_name.startswith("__"):
            raise ValueError(
                "multicommodity predictor needs concrete bins, got "
                f"{bin_name!r}"
            )
        if f"{bin_name}/in" not in node_id or gpu not in node_id:
            raise KeyError(f"unknown node in demand: {bin_name!r}/{gpu!r}")
        if nbytes <= negligible:
            continue
        per_bin.setdefault(bin_name, {})[gpu] = (
            per_bin.get(bin_name, {}).get(gpu, 0.0) + nbytes * unit
        )
    if not per_bin:
        return McfPrediction(scale=np.inf, time=0.0, throughput=0.0)
    commodities = sorted(per_bin)
    n_edges, n_nodes, n_comm = len(caps), len(nodes), len(commodities)

    # variables: x[b * n_edges + e] >= 0, then lambda (last).  Rows: one
    # capacity row per finite edge, then conservation rows
    # ``b * n_nodes + node`` per commodity (net outflow = supply).
    n_flow = n_comm * n_edges
    n_vars = n_flow + 1
    finite = np.isfinite(caps)
    n_ub = int(finite.sum())

    # The constraint matrix in CSC order.  Column (b, e) holds edge e's
    # capacity row (finite edges only), then its two conservation rows
    # for commodity b — outflow +1 at u, inflow -1 at v — ascending.
    u_ids = np.array([node_id[u] for u in u_names], dtype=np.int32)
    v_ids = np.array([node_id[v] for v in v_names], dtype=np.int32)
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
    memories = set(network.devices.memories)
    kinds = np.array(
        [_MEM if bin_name in memories else _DEVICE for bin_name in commodities]
    )
    forbidden = (restrictions[None, :] != _ANY) & (
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

    highs = solver if solver is not None else new_lp_solver()
    status = highs.passModel(
        n_vars,
        n_rows,
        len(values),
        _COLWISE,
        _MINIMIZE,
        0.0,  # objective offset
        cost,
        np.zeros(n_vars),
        col_upper,
        row_lower,
        row_upper,
        indptr,
        indices,
        values,
        np.zeros(n_vars, dtype=np.int32),  # every column continuous
    )
    if status == _highs.HighsStatus.kError:
        raise RuntimeError("multicommodity LP failed: HiGHS rejected the model")
    highs.run()
    status = highs.getModelStatus()
    if status != _highs.HighsModelStatus.kOptimal:
        raise RuntimeError(
            "multicommodity LP failed: "
            f"{highs.modelStatusToString(status)}"
        )
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    _check_solution(
        x,
        highs.getObjectiveValue(),
        np.array(solution.row_value),
        col_upper,
        row_upper,
        n_ub,
    )
    scale = float(x[-1])
    if scale <= 0:
        raise RuntimeError("demand is not routable at any positive rate")

    # per-edge totals across commodities in one reshape+sum
    flows = x[:n_flow].reshape(n_comm, n_edges).sum(axis=0)
    utilisation: Dict[Tuple[str, str], float] = {}
    cap_list = caps.tolist()
    for e in np.flatnonzero(finite).tolist():
        u, v, cap = u_names[e], v_names[e], cap_list[e]
        u_name = u[:-4] if u.endswith("/out") else u
        v_name = v[:-3] if v.endswith("/in") else v
        used = min(1.0, float(flows[e]) / cap) if cap else 0.0
        # a QPI link is two parallel edges (memory and device traffic);
        # report the busier one so a saturated edge stays visible
        key = (u_name, v_name)
        utilisation[key] = max(used, utilisation.get(key, 0.0))

    time_s = 1.0 / scale
    return McfPrediction(
        scale=scale,
        time=time_s,
        throughput=demand.total * scale,
        utilisation=utilisation,
    )
