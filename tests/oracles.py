"""Reference implementations the package's fast kernels are tested against.

They are deliberately plain: direct transcriptions of the algorithm, one
Python loop per step, kept here so a differential test can pin the
vectorized production code to them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.simulator.bandwidth import FairShareResult, Flow, ResourceKey
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
