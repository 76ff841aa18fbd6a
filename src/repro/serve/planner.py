"""The default planner: one request in, one solved payload out.

:func:`solve` is the worker-pool callable — it builds (or reuses) the
request's dataset and machine, runs the Moment optimizer through
``repro.api.run`` (``simulate=True``, the full epoch verdict) or
``MomentSystem.choose_placement`` (``simulate=False``, plan only), and
returns the JSON-ready payload the cache stores and the HTTP layer
ships.  The solve rides the existing :mod:`repro.core.search` engine,
which runs inline in whichever thread or ``--solver-processes`` child
calls it: the server spreads requests over cores, never one search.

Machines and built datasets are memoized process-wide (both are
immutable once built): machine resolution keys on the registry name or
the canonical JSON of an inline fabric, datasets on their
:meth:`~repro.serve.schema.DatasetProfile.normalized` recipe.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Callable, Dict, Optional

from repro.serve.cache import PlanCache
from repro.serve.schema import (
    SERVE_SCHEMA,
    TINY_KEY,
    DatasetProfile,
    PlanRequest,
    RequestError,
)

#: Built datasets are a few MB each; keep a handful.
_DATASET_CACHE = PlanCache(capacity=8)
_MACHINE_CACHE: Dict[str, object] = {}
_MACHINE_LOCK = threading.Lock()


def resolve_machine(request: PlanRequest):
    """The compiled :class:`~repro.hardware.machines.MachineSpec` a
    request names (memoized; :class:`RequestError` on bad identities).

    Only registry names (``machine_a``, aliases, ``gen:<seed>``) and
    inline fabric payloads are served — path-shaped names are rejected
    so a request can never make the server read its own filesystem.
    """
    if request.machine is not None:
        name = request.machine
        if "/" in name or "\\" in name or name.endswith(".json"):
            raise RequestError(
                f"machine {name!r} looks like a file path; the server "
                "resolves registry names only (send the spec inline via "
                "'fabric' instead)",
                field="machine",
            )
        cache_id = f"name:{name}"
    else:
        cache_id = "fabric:" + json.dumps(request.fabric, sort_keys=True)
    with _MACHINE_LOCK:
        machine = _MACHINE_CACHE.get(cache_id)
    if machine is not None:
        return machine
    try:
        if request.machine is not None:
            from repro.hardware.registry import get_machine

            machine = get_machine(request.machine)
        else:
            from repro.hardware.fabric import FabricSpec, compile_fabric

            machine = compile_fabric(FabricSpec.from_dict(request.fabric))
    except (KeyError, ValueError, TypeError) as err:
        field = "machine" if request.machine is not None else "fabric"
        raise RequestError(str(err), field=field) from err
    with _MACHINE_LOCK:
        _MACHINE_CACHE[cache_id] = machine
    return machine


def build_dataset(profile: DatasetProfile):
    """Build (or reuse) the :class:`ScaledDataset` a profile describes."""
    key = profile.normalized()
    dataset = _DATASET_CACHE.get(key)
    if dataset is not None:
        return dataset
    if profile.key == TINY_KEY:
        from repro.graphs.datasets import tiny_dataset

        dataset = tiny_dataset(
            num_vertices=profile.num_vertices,
            avg_degree=profile.avg_degree,
            seed=profile.seed,
            feature_dim=(
                profile.feature_dim if profile.feature_dim is not None else 32
            ),
            batch_size=profile.batch_size,
            skew_exponent=profile.skew_exponent,
        )
    else:
        from repro.graphs.datasets import get_dataset

        dataset = get_dataset(profile.key).build(
            scale=profile.scale,
            seed=profile.seed,
            feature_dim=profile.feature_dim,
        )
    _DATASET_CACHE.put(key, dataset)
    return dataset


def _plan_payload(plan) -> Optional[Dict]:
    """JSON-ready summary of a :class:`~repro.core.optimizer.MomentPlan`."""
    if plan is None:
        return None
    payload = {
        "placement": list(plan.placement.as_tuple()),
        "predicted_throughput": float(plan.predicted_throughput),
        "fractions": {
            "gpu": float(plan.fractions[0]),
            "cpu": float(plan.fractions[1]),
            "ssd": float(plan.fractions[2]),
        },
        "num_candidates": int(plan.num_candidates),
        "num_unique": int(plan.num_unique),
        "optimize_seconds": float(plan.optimize_seconds),
    }
    if plan.search is not None:
        s = plan.search
        payload["search"] = {
            "num_lp_scored": int(s.num_lp_scored),
            "num_pass1_scored": int(s.num_pass1_scored),
            "ceiling_hits": int(s.ceiling_hits),
            "ceiling_cut": s.ceiling_cut,
        }
    return payload


def run_planner(
    planner: Callable[[PlanRequest, object], Dict], request: PlanRequest
) -> Dict:
    """Process-pool entry point: resolve the machine in *this* process
    and run ``planner``.

    Submitted by :class:`~repro.serve.service.PlanService` when solver
    processes are configured — the request travels by pickle (it is a
    frozen dataclass of plain values), the machine is re-resolved
    against the child's own memoized caches (cheaper than pickling a
    compiled chassis per solve), and the payload comes back tagged with
    the solver PID so callers can verify which process solved.
    """
    machine = resolve_machine(request)
    payload = planner(request, machine)
    if isinstance(payload, dict):
        payload.setdefault("solver", {})["pid"] = os.getpid()
    return payload


def warm_process() -> int:
    """Pre-import the heavy solve dependencies in a pool worker.

    Submitted once per solver process at service start so the first
    real solve does not pay the numpy/scipy/engine import bill; returns
    the worker's PID (the caller counts distinct PIDs).
    """
    import numpy  # noqa: F401

    from repro.api import run  # noqa: F401
    from repro.runtime.system import MomentSystem  # noqa: F401

    return os.getpid()


def solve(request: PlanRequest, machine=None) -> Dict:
    """Solve one planning request into its cacheable response payload.

    The payload carries the plan summary, the throughput verdict, and
    (for simulated runs) the full ``repro.run/v1`` record — everything
    request-independent; per-request timing and cache labels are added
    by the service.
    """
    if machine is None:
        machine = resolve_machine(request)
    dataset = build_dataset(request.dataset)

    from repro.runtime.system import MomentSystem

    system = MomentSystem(
        machine,
        gpu_cache_fraction=request.gpu_cache_fraction,
        cpu_cache_vertex_fraction=request.cpu_cache_vertex_fraction,
    )

    if not request.simulate:
        # Plan-only: the same choose_placement path a full run takes,
        # with the same per-run seed override, minus the epoch.
        system.seed = request.seed
        placement, plan = system.choose_placement(
            dataset, None, request.num_gpus, request.num_ssds, None
        )
        return {
            "schema": SERVE_SCHEMA,
            "plan": _plan_payload(plan),
            "verdict": {
                "ok": True,
                "oom": None,
                "predicted_throughput": float(plan.predicted_throughput),
            },
            "result": None,
        }

    from repro.api import run as api_run
    from repro.runtime.spec import RunSpec

    spec = RunSpec(
        dataset=dataset,
        model=request.model,
        num_gpus=request.num_gpus,
        num_ssds=request.num_ssds,
        fanouts=request.fanouts,
        sample_batches=request.sample_batches,
        seed=request.seed,
    )
    result = api_run(system, spec)
    verdict = {
        "ok": bool(result.ok),
        "oom": result.oom,
        "predicted_throughput": (
            float(result.plan.predicted_throughput)
            if result.plan is not None
            else None
        ),
    }
    if result.ok:
        verdict.update(
            paper_epoch_seconds=float(result.paper_epoch_seconds),
            seeds_per_s=float(result.seeds_per_s),
            throughput_bytes_per_s=float(
                result.epoch.throughput_bytes_per_s
            ),
        )
    return {
        "schema": SERVE_SCHEMA,
        "plan": _plan_payload(result.plan),
        "verdict": verdict,
        "result": result.to_dict(),
    }
