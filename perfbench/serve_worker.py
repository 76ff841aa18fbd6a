"""One session of the ``serve-mix`` workload: a fresh planning server
driven by one open-loop client process.

Set-up starts ``python -m repro.serve`` (default flags plus an
ephemeral port, :data:`SERVER_FLAGS` and a fresh ``--cache-path``),
solves the hot key set once on a kept-alive connection, and checks one
hot key's served placement against a direct ``repro.api.run`` of the
same request.  The measured window then sends requests at
:data:`RATE_RPS` with Poisson arrival times over at most
:data:`CONNECTIONS` kept-alive HTTP/1.1 connections: a
:data:`HOT_SHARE` share repeats a hot key (LRU hits), the rest are
never-seen plan seeds (cold solves, appended to the store), so the
median request is a cold solve.

The window is cut into bursts of about :data:`BURST_S`.  After each
burst the client waits for every response and times the host-speed
probe (:mod:`hostspeed`) while the server is idle; a request's
latency is scaled by the probes on either side of its burst.

A request's latency runs from its scheduled send time to its last
response byte, so a stall's wait on later requests is counted.  Every
200 body for a key must name that key's first-solved placement.  A
session whose sends ran more than :data:`LATE_LIMIT_S` behind schedule
(90th percentile) exits non-zero instead of reporting latencies.

Prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import queue
import random
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import (
    HERE,
    clean_env,
    close_rel,
    emit,
    env_record,
    input_seed,
    note,
    p90,
    process_peak_rss_mb,
    spawned_at,
    worker_args,
)
from hostspeed import probe

#: Offered load, requests/s: the lowest rate that puts >= 100 requests
#: in a 14 s run, 60-70% of the 10.8-12.5 requests/s at which this mix
#: saturates the server (see METRICS.md).
RATE_RPS = 7.5
#: Kept-alive client connections (requests queue for a free one).
CONNECTIONS = 2
#: Hot keys, solved in set-up; well inside the default 64-entry LRU.
HOT_KEYS = 8
#: Share of requests that repeat a hot key: below half, so the median
#: request is a cold solve and p50 and p90 both lie on the solve path.
HOT_SHARE = 0.4
#: First plan seed of the never-seen keys (hot keys use 0..HOT_KEYS-1).
MISS_SEED_BASE = 1000
#: A session whose 90th-percentile send lateness exceeds this is
#: invalid: the generator fell behind its schedule.
LATE_LIMIT_S = 0.5
#: Per-request client timeout; well above the server's own 30 s.
REQUEST_TIMEOUT_S = 60.0
#: Server flags beyond an ephemeral port and a fresh ``--cache-path``:
#: cold solves run one at a time in one solver process, off the request
#: threads, so a hit never waits for a solve to release the GIL and a
#: solve runs on one core, as the single-threaded host-speed probe does.
SERVER_FLAGS: Tuple[str, ...] = ("--solver-processes", "1")
#: Requests go out in bursts of about this length; between two bursts
#: the client waits for every response, then times the host-speed
#: probe while the server is idle.
BURST_S = 1.0


def request_body(dataset_seed: int, plan_seed: int) -> bytes:
    """One planning request: the TINY graph made from ``dataset_seed``,
    Machine A, 4 GPUs / 8 SSDs, a given plan seed."""
    return json.dumps(
        {
            "dataset": {"key": "TINY", "seed": dataset_seed},
            "machine": "machine_a",
            "num_gpus": 4,
            "num_ssds": 8,
            "seed": plan_seed,
        }
    ).encode()


def schedule(seed: int, seconds: float) -> List[List[Tuple[float, int]]]:
    """The window's bursts: ``(due offset in the burst s, plan seed)``.

    The window is cut into bursts of about :data:`BURST_S`.  Each holds
    ``round(RATE_RPS * burst length)`` arrivals at uniformly random times
    (a Poisson process conditioned on its count, so every burst carries
    the same load); exactly :data:`HOT_SHARE` of them (rounded) repeat
    a hot key, in seeded order.
    """
    rng = random.Random(seed)
    count = max(1, round(seconds / BURST_S))
    span = seconds / count
    per_burst = max(1, round(RATE_RPS * span))
    hot = round(HOT_SHARE * per_burst)
    misses = 0
    bursts = []
    for _ in range(count):
        dues = sorted(rng.uniform(0.0, span) for _ in range(per_burst))
        kinds = [True] * hot + [False] * (per_burst - hot)
        rng.shuffle(kinds)
        burst = []
        for due, is_hot in zip(dues, kinds):
            if is_hot:
                burst.append((due, rng.randrange(HOT_KEYS)))
            else:
                burst.append((due, MISS_SEED_BASE + misses))
                misses += 1
        bursts.append(burst)
    return bursts


class Server:
    """The planning server process."""

    def __init__(self, workdir: Path) -> None:
        cmd = [
            sys.executable, "-m", "repro.serve",
            "--port", "0",
            "--cache-path", str(workdir / "plans.jsonl"),
            *SERVER_FLAGS,
        ]
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, env=clean_env(), text=True
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
        line = self.proc.stdout.readline() if ready else ""
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        hostport = line.split("listening on http://", 1)[1].split()[0]
        host, _, port = hostport.partition(":")
        self.host, self.port = host, int(port)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host, self.port, timeout=REQUEST_TIMEOUT_S
        )

    def stop(self) -> None:
        """Interrupt the server and wait until it has exited."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def post(conn: http.client.HTTPConnection, body: bytes) -> Tuple[int, bytes]:
    conn.request(
        "POST", "/v1/plan", body=body, headers={"Content-Type": "application/json"}
    )
    resp = conn.getresponse()
    return resp.status, resp.read()


def get_json(conn: http.client.HTTPConnection, path: str) -> Dict:
    conn.request("GET", path)
    resp = conn.getresponse()
    data = resp.read()
    if resp.status != 200:
        raise RuntimeError(f"GET {path} -> {resp.status}")
    return json.loads(data)


def direct_run(dataset_seed: int, plan_seed: int) -> Dict:
    """The same request as :func:`request_body`, run in-process through
    ``repro.api.run`` with the server's request defaults."""
    from repro import MomentSystem, RunSpec, machine_a, run
    from repro.graphs.datasets import tiny_dataset

    result = run(
        MomentSystem(
            machine_a(), gpu_cache_fraction=0.6, cpu_cache_vertex_fraction=0.01
        ),
        RunSpec(
            dataset=tiny_dataset(seed=dataset_seed),
            num_gpus=4,
            num_ssds=8,
            seed=plan_seed,
        ),
    )
    return {
        "placement": [list(slot) for slot in result.placement.as_tuple()],
        "sim_epoch_s": float(result.paper_epoch_seconds),
    }


def main() -> None:
    args = worker_args()
    t0 = spawned_at(args)
    workdir = HERE.parent / ".perfbench_tmp" / f"serve-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    problems: List[str] = []
    server = None
    try:
        server = Server(workdir)
        result = session(server, args, t0, problems)
        result["peak_rss_mb"] = process_peak_rss_mb(server.proc.pid)
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another session's dir remains
            workdir.parent.rmdir()
    late_p90 = p90([op["late_s"] for op in result["ops"]])
    if late_p90 > LATE_LIMIT_S:
        raise SystemExit(
            f"serve-mix: the generator fell behind its schedule "
            f"(late p90 {late_p90:.3f} s > {LATE_LIMIT_S} s); no latency reported"
        )
    result.update(
        workload=args.workload,
        seed=args.seed,
        problems=problems,
        env=env_record(),
    )
    emit(result)


def session(server: Server, args, t0: float, problems: List[str]) -> Dict:
    """Set up, then drive the measured window; the session's record."""
    seed = input_seed(args.seed, args.session)
    attempted = failed = 0
    first: Dict[int, list] = {}  # plan seed -> first-solved placement

    # -- set-up: hot set warm-up + direct-run equivalence (untimed) ----
    conn = server.connect()
    sim_epoch_s = None
    for plan_seed in range(HOT_KEYS):
        status, data = post(conn, request_body(seed, plan_seed))
        attempted += 1
        if status != 200:
            failed += 1
            note(problems, f"warm-up key {plan_seed}: HTTP {status}")
            continue
        body = json.loads(data)
        first[plan_seed] = body["plan"]["placement"]
        if plan_seed == 0:
            sim_epoch_s = body["verdict"]["paper_epoch_seconds"]
    direct = direct_run(seed, 0)
    attempted += 1
    if first.get(0) != direct["placement"] or sim_epoch_s is None or not close_rel(
        sim_epoch_s, direct["sim_epoch_s"]
    ):
        failed += 1
        note(problems, "served hot key 0 differs from a direct repro.api.run")
    before = get_json(conn, "/v1/metrics")
    conns = [conn] + [server.connect() for _ in range(CONNECTIONS - 1)]
    setup_s = time.monotonic() - t0
    setup_probe = probe()  # host speed after set-up; opens burst 0

    # -- measured window: open-loop Poisson stream, in bursts -----------
    bursts = schedule(seed, args.seconds)
    plan = [req for burst in bursts for req in burst]
    records: List[Optional[Dict]] = [None] * len(plan)
    work: "queue.Queue[Optional[Tuple[int, float]]]" = queue.Queue()

    def sender(slot: int) -> None:
        while True:
            item = work.get()
            if item is None:
                return
            i, due = item
            body = request_body(seed, plan[i][1])
            sent = time.monotonic()
            try:
                status, data = post(conns[slot], body)
            except (OSError, http.client.HTTPException) as err:
                conns[slot].close()
                conns[slot] = server.connect()
                status, data = None, repr(err).encode()
            done = time.monotonic()
            records[i] = {
                "due": due,
                "sent": sent,
                "done": done,
                "status": status,
                "data": data,
            }
            work.task_done()

    threads = [
        threading.Thread(target=sender, args=(slot,), daemon=True)
        for slot in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    probe_before = setup_probe
    first_of_burst = 0
    for burst in bursts:
        members = range(first_of_burst, first_of_burst + len(burst))
        first_of_burst += len(burst)
        start = time.monotonic()
        for i in members:
            due = start + plan[i][0]
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            work.put((i, due))
        work.join()  # every response of the burst is in: the server idles
        probe_after = probe()
        for i in members:
            records[i]["probe_s"] = (probe_before + probe_after) / 2
        probe_before = probe_after
    for _ in threads:
        work.put(None)
    for thread in threads:
        thread.join(timeout=REQUEST_TIMEOUT_S)
        if thread.is_alive():
            raise RuntimeError("a sender thread did not finish")
    after = get_json(conns[0], "/v1/metrics")
    for c in conns:
        c.close()

    # -- checks + per-request record -----------------------------------
    ops = []
    for (_, plan_seed), rec in zip(plan, records):
        attempted += 1
        op = {
            "wall_s": rec["done"] - rec["due"],
            "probe_s": rec["probe_s"],
            "late_s": rec["sent"] - rec["due"],
            "hot": plan_seed < HOT_KEYS,
        }
        ops.append(op)
        if rec["status"] != 200:
            failed += 1
            note(problems, f"key {plan_seed}: {rec['status']} {rec['data'][:200]!r}")
            continue
        body = json.loads(rec["data"])
        placement = body["plan"]["placement"]
        expected = first.setdefault(plan_seed, placement)
        if placement != expected or not body["verdict"]["ok"]:
            failed += 1
            note(problems, f"key {plan_seed}: placement changed between solves")
        timing = body["timing"]
        op["cache"] = body["cache"]
        op["wire_s"] = (rec["done"] - rec["sent"]) - timing["total_s"]
        if timing.get("solve_s") is not None:
            op["solve_s"] = timing["solve_s"]
            op["queued_s"] = timing["queued_s"]
        if body["cache"] == "miss":
            op["search.candidates"] = body["plan"]["num_candidates"]
            op["search.unique"] = body["plan"]["num_unique"]
    delta = {
        key: after[key] - before[key]
        for key in ("requests", "cache_hits", "cache_misses", "persisted", "rejected", "timeouts", "errors")
    }
    return {
        "setup_s": setup_s,
        "setup_probe_s": setup_probe,
        "ops": ops,
        "attempted": attempted,
        "failed": failed,
        "sim_epoch_s": sim_epoch_s,
        "placement": first.get(0),
        "metrics_delta": delta,
    }


if __name__ == "__main__":
    main()
