"""The repo's end-to-end benchmark, attributed to layers.

    python3 perfbench/run.py --workload plan-a --seed 0 --seconds 14 --trace 0

Runs one workload as :data:`SESSIONS` fresh worker processes in a row,
each measuring a share of ``--seconds`` after its own set-up (METRICS.md
says why each workload exists).  Host times are scaled to a reference
host speed by a probe timed next to them (:mod:`hostspeed`).  Operation
latencies are pooled over the sessions; ``setup_s`` is the median
session set-up.  Every operation's output is checked by the worker that
ran it.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is the
separate traced run: every metric of :data:`PER_LAYER` (per-layer self
times and counts, ``trace.overhead`` and ``trace.coverage`` for the
plan workloads, the serve-layer figures for ``serve-mix``).

Child processes run with every ``REPRO_*`` variable removed.  The
human-readable record (environment, one row per session, metrics) goes
to stdout; the last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from common import HERE, SRC, clean_env, median, p90
from hostspeed import REF_PROBE_S

#: Fresh worker processes per run; ``setup_s`` is their median.
SESSIONS = 3

WORKERS = {
    "plan-a": "plan_worker.py",
    "plan-b": "plan_worker.py",
    "epoch-fault": "plan_worker.py",
    "serve-mix": "serve_worker.py",
}

#: Wall-time limit of a whole run; a session still going at it is
#: killed and the run fails.
RUN_LIMIT_S = 170.0

END_TO_END = {
    "latency_p50_s": "s",
    "sim_epoch_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "success_ratio": "ratio",
}

#: per-layer metric -> (tracer layer, field): ``self_s`` is a self
#: time in seconds, ``calls``/``items`` a count.
LAYER_METRICS = {
    "sampling.hotness_s": ("sampling.hotness", "self_s"),
    "hardware.topology_builds": ("hardware.topology_build", "calls"),
    "hardware.topology_build_s": ("hardware.topology_build", "self_s"),
    "search.engine_s": ("search.engine", "self_s"),
    "search.pass1_s": ("search.pass1", "self_s"),
    "search.pass1_scored": ("search.pass1", "items"),
    "search.pass2_s": ("search.pass2", "self_s"),
    "search.lp_solved": ("search.pass2", "calls"),
    "ddak.place_s": ("ddak.place", "self_s"),
    "ddak.place_calls": ("ddak.place", "calls"),
    "sim.step_s": ("sim.step", "self_s"),
    "sim.steps": ("sim.step", "calls"),
    "sim.fill_s": ("sim.fill", "self_s"),
    "sim.fill_calls": ("sim.fill", "calls"),
    "replan.on_step_s": ("replan.on_step", "self_s"),
}

#: Counts the program reports itself, per operation.
RESULT_COUNTS = ("search.candidates", "search.unique", "replan.events")

RATIOS = ("trace.overhead", "trace.coverage", "serve.hit_ratio")

#: Every per-layer metric, in report order.  A traced run prints all of
#: them; a layer the workload does not run in the measuring process
#: reads 0 (the plan layers on ``serve-mix``, whose solves run in the
#: server's solver process, and the serve layers on the plan
#: workloads).
PER_LAYER = (
    "graphs.build_s",
    "sampling.hotness_s",
    "hardware.topology_builds",
    "hardware.topology_build_s",
    "search.candidates",
    "search.unique",
    "search.engine_s",
    "search.pass1_s",
    "search.pass1_scored",
    "search.pass2_s",
    "search.lp_solved",
    "ddak.place_s",
    "ddak.place_calls",
    "sim.step_s",
    "sim.steps",
    "sim.fill_s",
    "sim.fill_calls",
    "replan.on_step_s",
    "replan.events",
    "serve.hit_ratio",
    "serve.wire_p50_s",
    "serve.queued_p50_s",
    "serve.solve_p50_s",
    "serve.persisted",
    "serve.rejected",
    "serve.timeouts",
    "loadgen.late_p90_s",
    "trace.overhead",
    "trace.coverage",
)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name in RATIOS else "count"


def run_session(args, session: int, deadline: float) -> Dict:
    """Start one worker process, wait for it, return its record."""
    share = args.seconds / SESSIONS
    cmd = [
        sys.executable,
        str(HERE / WORKERS[args.workload]),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--session", str(session),
        "--seconds", repr(share),
        "--trace", str(args.trace),
        "--spawned-at", repr(time.monotonic()),
    ]
    # own process group: a timeout also kills the server a worker started
    proc = subprocess.Popen(
        cmd,
        cwd=HERE.parent,
        env=clean_env(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(HERE.parent / ".perfbench_tmp", ignore_errors=True)
        sys.exit(f"{args.workload}: session {session} timed out")
    if proc.returncode != 0:
        sys.exit(
            f"{args.workload}: session {session} exited with "
            f"{proc.returncode}"
        )
    return json.loads(stdout.strip().splitlines()[-1])


def scaled(seconds: float, probe_s: float) -> float:
    """Host seconds scaled to the reference host speed (hostspeed.py)."""
    return seconds * REF_PROBE_S / probe_s


def latencies(records: List[Dict], traced: bool = False) -> List[float]:
    """Reference-speed latencies of the (un)traced timed operations."""
    return [
        scaled(op["wall_s"], op["probe_s"])
        for rec in records
        for op in rec["ops"]
        if op.get("traced", False) == traced
    ]


def end_to_end(records: List[Dict], success: float) -> Dict[str, float]:
    lat = latencies(records)
    return {
        "latency_p50_s": median(lat),
        "latency_p90_s": p90(lat),
        "sim_epoch_s": statistics.fmean(
            [rec["sim_epoch_s"] for rec in records]
        ),
        "setup_s": median(
            [scaled(rec["setup_s"], rec["setup_probe_s"]) for rec in records]
        ),
        "peak_rss_mb": median([rec["peak_rss_mb"] for rec in records]),
        "success_ratio": success,
    }


def plan_layers(records: List[Dict]) -> Dict[str, float]:
    """Per-operation medians over the traced operations."""
    ops = [op for rec in records for op in rec["ops"]]
    traced = [op for op in ops if op["traced"]]
    out = {
        "graphs.build_s": median(
            [rec["setup_layers"]["graphs.build"]["self_s"] for rec in records]
        )
    }
    for name, (layer, field) in LAYER_METRICS.items():
        out[name] = median([op["layers"][layer][field] for op in traced])
    for name in RESULT_COUNTS:
        out[name] = median(
            [op["counts"][name] for op in traced if "counts" in op]
        )
    out["trace.overhead"] = median(latencies(records, traced=True)) / median(
        latencies(records)
    )
    out["trace.coverage"] = median(
        [
            sum(v["self_s"] for v in op["layers"].values()) / op["wall_s"]
            for op in traced
        ]
    )
    return out


def serve_layers(records: List[Dict]) -> Dict[str, float]:
    """Serve-layer figures read from responses and ``/v1/metrics``
    (the solves run in the server's solver process, which is not
    traced); search counts are per cold solve."""
    ops = [op for rec in records for op in rec["ops"]]
    hits = [op for op in ops if op.get("cache") == "hit"]
    misses = [op for op in ops if "solve_s" in op]
    out = {
        name: median([op[name] for op in misses if name in op])
        for name in ("search.candidates", "search.unique")
    }
    out["serve.hit_ratio"] = len(hits) / len(ops)
    out["serve.wire_p50_s"] = median([op["wire_s"] for op in hits])
    out["serve.queued_p50_s"] = median([op["queued_s"] for op in misses])
    out["serve.solve_p50_s"] = median([op["solve_s"] for op in misses])
    for name in ("persisted", "rejected", "timeouts"):
        out[f"serve.{name}"] = sum(
            rec["metrics_delta"][name] for rec in records
        )
    out["loadgen.late_p90_s"] = p90([op["late_s"] for op in ops])
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2

    serve = args.workload == "serve-mix"
    load_start = os.getloadavg()
    deadline = time.monotonic() + RUN_LIMIT_S
    records = [
        run_session(args, session, deadline) for session in range(SESSIONS)
    ]
    load_end = os.getloadavg()
    problems = [p for rec in records for p in rec["problems"]]
    attempted = sum(rec["attempted"] for rec in records)
    failed = sum(rec["failed"] for rec in records)

    print(
        f"workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}"
    )
    print(
        f"nproc={os.cpu_count()} loadavg_start={load_start} "
        f"loadavg_end={load_end}"
    )
    for key, value in records[0]["env"].items():
        print(f"env {key}={value}")
    # raw host figures beside the reference-speed ones; host_speed > 1
    # means the host ran slower than the reference during the session
    print(
        "session host_setup_s host_speed   ops host_p50_s  latency_p50_s"
        "  peak_rss_mb  failed"
    )
    for i, rec in enumerate(records):
        walls = [op["wall_s"] for op in rec["ops"]]
        speed = median([op["probe_s"] for op in rec["ops"]]) / REF_PROBE_S
        print(
            f"{i:>7} {rec['setup_s']:12.3f} {speed:10.3f} {len(walls):5d} "
            f"{median(walls):10.6f} {median(latencies([rec])):14.6f} "
            f"{rec['peak_rss_mb']:12.1f} {rec['failed']:7d}"
        )
    host_p50 = median(
        [op["wall_s"] for rec in records for op in rec["ops"] if not op.get("traced")]
    )
    print(f"host_latency_p50_s = {host_p50:.9g} s (not scaled)")
    print(
        f"attempted={attempted} failed={failed} "
        f"error_ratio={failed / attempted:.6g}"
    )
    for problem in problems:
        print(f"FAILED CHECK: {problem}")

    if serve:
        layers = serve_layers(records)
        sent = sum(len(rec["ops"]) for rec in records)
        ok = sum("cache" in op for rec in records for op in rec["ops"])
        print(
            f"serve window: sent={sent} succeeded={ok} failed={sent - ok} "
            f"loadgen.late_p90_s={layers['loadgen.late_p90_s']:.6f}"
        )
    if args.trace:
        values = dict.fromkeys(PER_LAYER, 0.0)
        values.update(layers if serve else plan_layers(records))
        assert list(values) == list(PER_LAYER), sorted(set(values) - set(PER_LAYER))
        metrics = {name: (v, unit_of(name)) for name, v in values.items()}
    else:
        values = end_to_end(records, (attempted - failed) / attempted)
        if serve:  # >= 100 requests a run, so >= 10 lie beyond p90
            print(f"latency_p90_s = {values['latency_p90_s']:.9g} s")
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.9g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
