"""One session of a planning workload (``plan-a``, ``plan-b``,
``epoch-fault``) in a fresh process.

Set-up builds the seeded dataset and runs one checked warm-up
operation; then the session repeats the same operation, one
``repro.api.run(MomentSystem(...), RunSpec(...))`` call at a time,
until ``--seconds`` have passed.  Each operation's output is checked,
and the host-speed probe (:mod:`hostspeed`) is timed after it, so each
operation has a probe on either side.
With ``--trace 1`` every other timed operation runs with the layer
wrappers installed (:mod:`tracing`), the rest without, so the session
yields both the per-layer self times and the tracing overhead.

Prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import time

from common import (
    close_rel,
    emit,
    env_record,
    input_seed,
    load_golden,
    note,
    peak_rss_mb,
    spawned_at,
    worker_args,
)
from hostspeed import probe
from tracing import Tracer


def build_workload(workload: str, seed: int):
    """``(system, spec)`` for one workload, its inputs made from ``seed``."""
    from repro import MomentSystem, RunSpec, machine_a, machine_b
    from repro.faults import FaultSchedule
    from repro.graphs.datasets import IGB_HOM
    from repro.hardware.machines import classic_layouts

    if workload == "epoch-fault":
        machine = machine_a()
        dataset = IGB_HOM.build(scale=IGB_HOM.default_scale * 4, seed=seed)
        spec = RunSpec(
            dataset=dataset,
            placement=classic_layouts(machine)["c"],
            num_gpus=4,
            num_ssds=8,
            sample_batches=40,
            faults=FaultSchedule.parse("ssd_failure@14:ssd0"),
            replan=True,
        )
    elif workload in ("plan-a", "plan-b"):
        machine = machine_a() if workload == "plan-a" else machine_b()
        dataset = IGB_HOM.build(scale=IGB_HOM.default_scale * 16, seed=seed)
        spec = RunSpec(
            dataset=dataset, num_gpus=4, num_ssds=8, sample_batches=5
        )
    else:
        raise SystemExit(f"plan_worker: unknown workload {workload!r}")
    return MomentSystem(machine, seed=seed), spec


def outputs(result) -> dict:
    """The checked outputs of one operation."""
    return {
        "placement": [list(slot) for slot in result.placement.as_tuple()],
        "sim_epoch_s": float(result.epoch.paper_epoch_seconds),
    }


def check(result, spec, workload, first, golden, problems) -> bool:
    """Check one operation's output; record failures in ``problems``."""
    if not result.ok:
        note(problems, f"OOM: {result.oom.splitlines()[0]}")
        return False
    try:
        result.data_placement.validate(spec.dataset.feature_bytes)
    except ValueError as err:
        note(problems, f"data placement invalid: {err}")
        return False
    got = outputs(result)
    ok = True
    if first is not None and got != first:
        note(problems, "output differs from the session's first operation")
        ok = False
    if golden is not None:
        if got["placement"] != golden["placement"]:
            note(problems, f"placement {got['placement']} != golden")
            ok = False
        if not close_rel(got["sim_epoch_s"], golden["sim_epoch_s"]):
            note(
                problems,
                f"sim_epoch_s {got['sim_epoch_s']!r} != golden "
                f"{golden['sim_epoch_s']!r}",
            )
            ok = False
    if workload == "epoch-fault" and not (
        result.replan is not None and result.replan.events
    ):
        note(problems, "the ssd0 failure triggered no replan")
        ok = False
    return ok


def counts(result) -> dict:
    """Per-operation counts the program reports itself."""
    return {
        "search.candidates": int(result.search.num_candidates),
        "search.unique": int(result.search.num_unique),
        "replan.events": (
            len(result.replan.events) if result.replan is not None else 0
        ),
    }


def main() -> None:
    args = worker_args()
    t0 = spawned_at(args)
    from repro.api import run

    tracer = Tracer()
    if args.trace:
        tracer.install()  # times the dataset build (graphs layer)
    system, spec = build_workload(
        args.workload, input_seed(args.seed, args.session)
    )
    setup_layers = tracer.snapshot()
    tracer.uninstall()
    golden = load_golden(args.workload, args.seed, args.session)
    problems = []
    attempted = failed = 0

    def operation():
        nonlocal attempted, failed
        start = time.perf_counter()
        try:
            result = run(system, spec)
        except Exception as err:  # a failed operation, not a crash
            wall = time.perf_counter() - start
            attempted += 1
            failed += 1
            note(problems, f"{type(err).__name__}: {err}")
            return wall, None
        wall = time.perf_counter() - start
        attempted += 1
        if not check(result, spec, args.workload, first, golden, problems):
            failed += 1
        return wall, result

    first = None
    _, warm = operation()  # warm-up: counted in setup_s, not latency
    if warm is not None and warm.ok:
        first = outputs(warm)
    setup_s = time.monotonic() - t0
    before = setup_probe = probe()  # host speed after set-up; opens op 0

    ops = []
    least = 2 if args.trace else 1  # a traced run needs both kinds
    deadline = time.perf_counter() + args.seconds
    while len(ops) < least or time.perf_counter() < deadline:
        traced = bool(args.trace) and len(ops) % 2 == 0
        if traced:
            tracer.install()
            tracer.reset()
        wall, result = operation()
        if traced:
            layers = tracer.snapshot()
            tracer.uninstall()
        after = probe()
        op = {"wall_s": wall, "probe_s": (before + after) / 2, "traced": traced}
        before = after
        if traced:
            op["layers"] = layers
        if result is not None and result.ok:
            op["counts"] = counts(result)
        ops.append(op)

    emit(
        {
            "workload": args.workload,
            "seed": args.seed,
            "setup_s": setup_s,
            "setup_probe_s": setup_probe,
            "setup_layers": setup_layers,
            "ops": ops,
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "sim_epoch_s": first["sim_epoch_s"] if first else None,
            "placement": first["placement"] if first else None,
            "peak_rss_mb": peak_rss_mb(),
            "env": env_record(),
        }
    )


if __name__ == "__main__":
    main()
