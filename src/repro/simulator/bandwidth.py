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
resource set always get the same max-min rate, so the kernel groups
flows into *path classes* and water-fills them with scalar loops over
each class's resources and each resource's classes, one level per
distinct rate level.  A progressive fill keeps every level's starting
state and, when flows retire, resumes from the first level their
classes were fixed at, re-using the levels below it unchanged.  The
test suite (``tests/oracles.py``) keeps two references: a plain
per-flow loop, and the NumPy incidence-matrix kernel this one equals
bit for bit.
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


class _WaterFill:
    """Scalar, sparse max-min water-fill over path classes.

    Each level fixes every class through a bottleneck resource — one
    whose remaining capacity per unfixed flow is the smallest — at that
    share, so there is one level per distinct rate level.  A level only
    visits resources that still have unfixed users; user counts are
    integer-valued floats, so every sum over them is exact in any order.

    The state at the start of each level is kept, so a progressive fill
    can :meth:`retire` flows and resume from the first level the retired
    classes were fixed at: below it their resources' shares were
    strictly above the level, and removing users only raises a share,
    so the earlier levels come out the same.
    """

    def __init__(self, incidence: np.ndarray, capacity: np.ndarray) -> None:
        num_res, num_cls = incidence.shape
        self.res_of: List[List[int]] = [[] for _ in range(num_cls)]
        self.cls_on: List[List[int]] = [[] for _ in range(num_res)]
        for r, c in zip(*(a.tolist() for a in np.nonzero(incidence))):
            self.res_of[c].append(r)
            self.cls_on[r].append(c)
        self.capacity = capacity.tolist()
        #: per class: its rate, and the level it was fixed at
        self.rates = [0.0] * num_cls
        self.fixed_at = [0] * num_cls
        #: per level: ``(cap_left, users, unfixed, live)`` at its start
        #: (``live``: the resources with unfixed users) and the classes
        #: it fixed
        self.levels: List[Tuple[List[float], List[float], List[float], List[int]]] = []
        self.fixed: List[List[int]] = []

    def fill(self, counts: Sequence[int]) -> List[float]:
        """Rates per class with ``counts[c]`` live flows in class c."""
        unfixed = [float(k) for k in counts]
        users = [0.0] * len(self.cls_on)
        for c, k in enumerate(unfixed):
            for r in self.res_of[c]:
                users[r] += k
        live = [r for r, u in enumerate(users) if u > 0]
        self.rates = [0.0] * len(unfixed)
        self._run(0, list(self.capacity), users, unfixed, live)
        return self.rates

    def retire(self, retired: Dict[int, int]) -> List[float]:
        """Rates after ``retired[c]`` more flows of class c finished."""
        k = min(self.fixed_at[c] for c in retired)
        # the retired classes are unfixed at the start of levels 0..k
        for _, users, unfixed, _ in self.levels[: k + 1]:
            for c, d in retired.items():
                unfixed[c] -= d
                for r in self.res_of[c]:
                    users[r] -= d
        for fixed in self.fixed[k:]:
            for c in fixed:
                self.rates[c] = 0.0
        cap_left, users, unfixed, live = self.levels[k]
        self._run(k, cap_left, users, unfixed, [r for r in live if users[r] > 0])
        return self.rates

    def _run(
        self,
        k: int,
        cap_left: List[float],
        users: List[float],
        unfixed: List[float],
        live: List[int],
    ) -> None:
        """Fill levels ``k, k+1, ...`` from the state at the start of ``k``."""
        del self.levels[k:], self.fixed[k:]
        res_of, cls_on = self.res_of, self.cls_on
        rates, fixed_at = self.rates, self.fixed_at
        while live:
            before = users[:]
            self.levels.append((cap_left[:], before, unfixed[:], live))
            shares = [cap_left[r] / users[r] for r in live]
            level = min(shares)
            fixed: List[int] = []
            for r, share in zip(live, shares):
                if share == level:  # a bottleneck: all its users get fixed
                    for c in cls_on[r]:
                        u = unfixed[c]
                        if u > 0:
                            unfixed[c] = 0.0
                            rates[c] = level
                            fixed_at[c] = k
                            fixed.append(c)
                            for q in res_of[c]:
                                users[q] -= u
            self.fixed.append(fixed)
            still = []
            for r in live:
                u = before[r] - users[r]
                if u:
                    # np.maximum(cap - u * level, 0), NaN propagating
                    left = cap_left[r] - u * level
                    cap_left[r] = 0.0 if left < 0.0 else left
                if users[r] > 0:
                    still.append(r)
            # a bottleneck has no users left, so its capacity (zeroed in
            # the reference) is never read again
            live = still
            k += 1


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
    class_rates = np.array(_WaterFill(incidence, capacity).fill(counts.tolist()))
    rates[idx[routed]] = class_rates[cls[routed]]
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
        cls = class_of[active]
        left = remaining[active]  # per active flow, in step with ``active``
        counts = np.bincount(cls, minlength=incidence.shape[1])
        fill = _WaterFill(incidence, capacity)
        class_rates = np.array(fill.fill(counts.tolist()))
    rounds = 0
    while active.size:
        rounds += 1
        if rounds > n + 1:
            raise RuntimeError("progressive filling failed to converge")
        rates = class_rates[cls]
        starved = rates <= 0
        if starved.any():
            flow = active[starved.argmax()]
            raise RuntimeError(f"flow {flow} starved (zero rate) — capacity exhausted")
        dt = float((left / rates).min())
        # advance to the first completion
        rate_on = incidence @ (counts * class_rates)
        np.maximum(peak_rates, rate_on, out=peak_rates)
        resource_bytes += rate_on * dt
        now += dt
        left -= rates * dt
        done = left <= 1e-6
        if not done.any():
            continue
        finish[active[done]] = now
        retired: Dict[int, int] = {}
        for c in cls[done].tolist():
            retired[c] = retired.get(c, 0) + 1
            counts[c] -= 1
        keep = ~done
        active, cls, left = active[keep], cls[keep], left[keep]
        if active.size:
            class_rates = np.array(fill.retire(retired))

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
