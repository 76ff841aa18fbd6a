"""Max-min fair bandwidth sharing with progressive filling.

The epoch simulator models concurrent DMA transfers (SSD->GPU,
CPU-mem->GPU, peer-GPU) as *flows* over shared *resources* (PCIe links,
QPI, device egress ports).  PCIe fabrics arbitrate roughly fairly among
requestors, so we allocate rates by the classic water-filling max-min
algorithm, then advance time to the next flow completion and re-fill —
"progressive filling".  This is intentionally a *different* model from
the max-flow predictor (flows here follow fixed routes and share
fairly; the predictor routes optimally), which is what makes the
paper's prediction-accuracy experiment (Fig. 13) non-circular.

Resources are arbitrary hashable keys with capacities in bytes/second;
flows are (resource-key list, demand bytes) pairs.  Flows over the same
resource set always get the same max-min rate, so the NumPy kernel
groups flows into *path classes* and water-fills a resources x classes
incidence matrix, one vectorized iteration per distinct rate level.
The plain per-flow loop it replaced is kept as the reference in the
test suite (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.utils.validation import check_nonnegative, check_positive

ResourceKey = Hashable


@dataclass
class Flow:
    """One transfer: ``demand`` bytes over the resources in ``path``.

    ``path`` may be empty (a purely local transfer, e.g. an HBM cache
    hit) — such flows complete instantly.  ``tag`` identifies the flow
    in results (e.g. ``("ssd3", "gpu1")``).
    """

    path: Tuple[ResourceKey, ...]
    demand: float
    tag: Hashable = None

    def __post_init__(self) -> None:
        check_nonnegative("demand", self.demand)
        self.path = tuple(self.path)


@dataclass
class FairShareResult:
    """Outcome of a progressive-filling run."""

    #: Time at which the last flow finished (seconds).
    makespan: float
    #: Per-flow completion time, in input order.
    finish_times: List[float]
    #: Total bytes carried by each resource.
    resource_bytes: Dict[ResourceKey, float]
    #: Peak concurrent utilisation (bytes/s) seen on each resource.
    peak_rates: Dict[ResourceKey, float]

    def finish_by_tag(self) -> Dict[Hashable, float]:
        """Max finish time per flow tag (None tags are skipped)."""
        out: Dict[Hashable, float] = {}
        for t, flow_tag in self._tags:
            if flow_tag is None:
                continue
            out[flow_tag] = max(out.get(flow_tag, 0.0), t)
        return out

    _tags: List[Tuple[float, Hashable]] = field(default_factory=list, repr=False)


def _check_capacities(capacities: Dict[ResourceKey, float]) -> None:
    for key, cap in capacities.items():
        check_positive(f"capacity[{key!r}]", cap)


def _path_classes(
    flows: Sequence[Flow], index: Dict[ResourceKey, int], idx: Iterable[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Group ``flows[idx]`` by resource set: ``(class_of, incidence)``.

    Max-min fairness gives flows over the same resource set the same
    rate, so the kernel fills path classes, not flows.  ``class_of[i]``
    is flow ``i``'s class (-1 for an empty path or a flow outside
    ``idx``); ``incidence`` is the resources x classes 0/1 matrix over
    ``index``.  Raises ``KeyError`` for a resource not in ``index``.
    """
    class_of = np.full(len(flows), -1, dtype=np.intp)
    classes: Dict[FrozenSet[ResourceKey], int] = {}
    rows: List[int] = []
    cols: List[int] = []
    for i in idx:
        path = flows[i].path
        if not path:
            continue
        members = frozenset(path)
        c = classes.get(members)
        if c is None:
            c = classes[members] = len(classes)
            for key in members:
                if key not in index:
                    raise KeyError(f"flow {i} uses unknown resource {key!r}")
                rows.append(index[key])
                cols.append(c)
        class_of[i] = c
    incidence = np.zeros((len(index), len(classes)))
    incidence[rows, cols] = 1.0
    return class_of, incidence


def _water_fill(
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
    rates[idx[routed]] = _water_fill(incidence, capacity, counts)[cls[routed]]
    return rates.tolist()


def degrade_capacities(
    capacities: Dict[ResourceKey, float],
    scale: Optional[Dict[ResourceKey, float]] = None,
    drop: Sequence[ResourceKey] = (),
    add: Optional[Dict[ResourceKey, float]] = None,
) -> Dict[ResourceKey, float]:
    """A degraded copy of a capacity dict for fault injection.

    ``drop`` removes resources entirely — :func:`max_min_rates` requires
    strictly positive capacities, so a dead resource must disappear from
    the dict, never be zeroed.  ``scale`` multiplies surviving
    capacities (factors must land positive); ``add`` introduces new
    resources (e.g. a failed drive's bounded recovery path).
    """
    dropped = set(drop)
    out = {k: v for k, v in capacities.items() if k not in dropped}
    for key, factor in (scale or {}).items():
        if key in out:
            check_positive(f"scaled capacity[{key!r}]", out[key] * factor)
            out[key] *= factor
    for key, cap in (add or {}).items():
        check_positive(f"added capacity[{key!r}]", cap)
        out[key] = cap
    return out


def progressive_fill(
    flows: Sequence[Flow],
    capacities: Dict[ResourceKey, float],
) -> FairShareResult:
    """Simulate all flows to completion under max-min fair sharing.

    Each round: compute fair rates, advance to the earliest completion,
    retire finished flows, release their bandwidth, repeat.  Runs at
    most ``len(flows) + 1`` rounds (one flow finishes per round,
    minimum).  Zero-demand and local (empty-path) flows finish at 0.
    """
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
        class_rates = _water_fill(incidence, capacity, counts)
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
