"""Synthetic traffic driver for the plan service.

Locust-style, stdlib-only: ``closed`` mode runs N concurrent clients
that each fire their next request the moment the previous one returns;
``open`` mode draws Poisson arrivals at ``--rate`` req/s from a seeded
:func:`repro.utils.rng.ensure_rng` stream and dispatches each request
on its own thread regardless of completions (the arrival process does
not slow down when the server does — that is the point of open-loop
load testing).

The request mix is ``--mix`` variants of one tiny-dataset planning
request differing only in their ``seed`` field — distinct cache keys,
identical cost — cycled round-robin.  With ``--warm`` (default) each
variant is solved once before the timed window, so the window measures
the steady state cache-hit path and the warm-up measures cold-solve
latency; ``--no-warm`` measures the mixed cold+hit regime.

``--json-out`` appends one ``repro.obs/v1`` record per repetition with
``derived.bench`` scalars (``throughput_rps``, ``latency_p95_s``,
``hit_latency_p50_s``, ``cold_latency_p50_s``, ``hit_speedup``,
``errors``...) — directly ingestable by ``python -m tools.warehouse``
and gateable with its CI machinery (see EXPERIMENTS.md "Serving").

Run it against a live server (``--url``) or let it spawn an in-process
one (``--spawn``)::

    python -m tools.loadgen --spawn --clients 100 --requests 400
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.serve.schema import SERVE_SCHEMA
from repro.utils.rng import derive_seed, ensure_rng


@dataclass
class LoadConfig:
    """One load-run description (CLI flags map 1:1)."""

    url: str
    clients: int = 8
    requests: int = 64
    mode: str = "closed"
    #: Open-loop arrival rate (req/s); ignored in closed mode.
    rate: float = 50.0
    #: Distinct request variants (distinct cache keys) in the mix.
    mix: int = 4
    seed: int = 0
    #: Solve each variant once before the timed window.
    warm: bool = True
    timeout_s: float = 60.0
    machine: str = "machine_a"
    num_gpus: int = 2
    num_ssds: int = 3
    sample_batches: int = 3
    vertices: int = 2000
    #: Serial cache-hit probes after the timed window (isolates the
    #: hit path's service time from the window's queueing delay).
    probes: int = 16
    #: Warm-phase concurrency.  1 = solve the mix serially (per-solve
    #: cold latency); N > 1 fires the whole mix N-at-a-time and reports
    #: ``cold_throughput_rps`` — the number that scales with
    #: ``--solver-processes``.
    cold_concurrency: int = 1
    #: "plan" = POST /v1/plan; "jobs" = POST /v1/jobs + long-poll.
    api: str = "plan"


#: Cache outcomes that count as hits (LRU or persistent store).
HIT_OUTCOMES = ("hit", "disk")


@dataclass
class Sample:
    """One request's outcome."""

    status: int
    latency_s: float
    cache: Optional[str] = None
    #: Stable error code from the unified envelope (non-200 only).
    error_code: Optional[str] = None


@dataclass
class LoadReport:
    """Aggregated outcome of one load run."""

    config: LoadConfig
    duration_s: float
    samples: List[Sample] = field(default_factory=list)
    cold_latencies: List[float] = field(default_factory=list)
    #: Serial post-window cache-hit latencies (no queueing delay).
    probe_latencies: List[float] = field(default_factory=list)
    #: Wall-clock of the (possibly concurrent) warm phase.
    cold_burst_s: float = 0.0

    @property
    def errors(self) -> int:
        """Samples that did not return HTTP 200."""
        return sum(1 for s in self.samples if s.status != 200)

    def error_codes(self) -> Dict[str, int]:
        """Non-200 sample counts keyed by unified-envelope code."""
        counts: Dict[str, int] = {}
        for s in self.samples:
            if s.status != 200:
                code = s.error_code or "transport"
                counts[code] = counts.get(code, 0) + 1
        return counts

    def latencies(self, cache: Optional[str] = None) -> List[float]:
        """Latencies of OK samples (optionally one cache outcome)."""
        return [
            s.latency_s
            for s in self.samples
            if s.status == 200 and (cache is None or s.cache == cache)
        ]

    def data(self) -> Dict[str, float]:
        """Warehouse-ready scalars (``derived.bench`` of the record)."""
        ok = self.latencies()
        hits = [
            s.latency_s
            for s in self.samples
            if s.status == 200 and s.cache in HIT_OUTCOMES
        ]
        out = {
            "requests": float(len(self.samples)),
            "errors": float(self.errors),
            "duration_s": self.duration_s,
            "throughput_rps": (
                len(ok) / self.duration_s if self.duration_s > 0 else 0.0
            ),
            "latency_p50_s": percentile(ok, 50),
            "latency_p95_s": percentile(ok, 95),
            "latency_max_s": max(ok) if ok else float("nan"),
        }
        if ok:
            out["hit_ratio"] = len(hits) / len(ok)
        if hits:
            out["hit_latency_p50_s"] = percentile(hits, 50)
        if self.cold_latencies and self.cold_burst_s > 0:
            out["cold_throughput_rps"] = (
                len(self.cold_latencies) / self.cold_burst_s
            )
        if self.cold_latencies:
            out["cold_latency_p50_s"] = percentile(self.cold_latencies, 50)
        if self.probe_latencies:
            out["hit_probe_p50_s"] = percentile(self.probe_latencies, 50)
        # speedup compares per-request *service* times: serial cold
        # solves vs serial hit probes (in-window hit latency also
        # carries the closed-loop queueing delay of `clients` peers)
        if self.probe_latencies and self.cold_latencies:
            probe_p50 = percentile(self.probe_latencies, 50)
            if probe_p50 > 0:
                out["hit_speedup"] = (
                    percentile(self.cold_latencies, 50) / probe_p50
                )
        return out

    def summary(self) -> str:
        """One human-readable result block."""
        d = self.data()
        lines = [
            f"loadgen: {self.config.mode}-loop, "
            f"{self.config.clients} clients, {self.config.api} API, "
            f"{len(self.samples)} requests in {self.duration_s:.2f}s",
            f"  throughput: {d['throughput_rps']:.1f} req/s, "
            f"hit ratio: {d.get('hit_ratio', float('nan')):.2f}, "
            f"errors: {self.errors}",
            f"  latency p50/p95/max: {d['latency_p50_s'] * 1e3:.2f} / "
            f"{d['latency_p95_s'] * 1e3:.2f} / "
            f"{d['latency_max_s'] * 1e3:.2f} ms",
        ]
        if self.errors:
            codes = ", ".join(
                f"{code}={n}" for code, n in sorted(self.error_codes().items())
            )
            lines.append(f"  error codes: {codes}")
        if "cold_throughput_rps" in d:
            lines.append(
                f"  cold burst: {len(self.cold_latencies)} solves in "
                f"{self.cold_burst_s:.2f}s "
                f"({d['cold_throughput_rps']:.2f} solves/s at "
                f"concurrency {self.config.cold_concurrency})"
            )
        if "cold_latency_p50_s" in d and "hit_probe_p50_s" in d:
            lines.append(
                f"  cold solve p50 {d['cold_latency_p50_s'] * 1e3:.1f} ms "
                f"vs serial hit p50 {d['hit_probe_p50_s'] * 1e3:.2f} ms "
                f"({d.get('hit_speedup', float('nan')):.0f}x)"
            )
        return "\n".join(lines)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (NaN on empty input)."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q / 100 * len(ordered))) - 1))
    if q >= 100:
        rank = len(ordered) - 1
    return ordered[rank]


def build_requests(config: LoadConfig) -> List[Dict]:
    """The request mix: ``mix`` variants differing only by plan seed."""
    base = {
        "schema": SERVE_SCHEMA,
        "dataset": {
            "key": "TINY",
            "num_vertices": config.vertices,
            "seed": config.seed,
        },
        "machine": config.machine,
        "num_gpus": config.num_gpus,
        "num_ssds": config.num_ssds,
        "sample_batches": config.sample_batches,
        "timeout_s": config.timeout_s,
    }
    return [
        dict(base, seed=config.seed + i) for i in range(max(1, config.mix))
    ]


def _error_code(raw: bytes) -> Optional[str]:
    """The stable ``error.code`` of an error body (None if unparsable)."""
    try:
        body = json.loads(raw.decode("utf-8"))
        code = body.get("error", {}).get("code")
        return code if isinstance(code, str) else None
    except (UnicodeDecodeError, json.JSONDecodeError, AttributeError):
        return None


def _request_json(
    url: str, data: Optional[bytes], timeout_s: float, method: str
) -> Tuple[int, Optional[Dict], Optional[str]]:
    """(status, body, error_code) for one HTTP exchange; never raises."""
    req = urllib.request.Request(
        url,
        data=data,
        headers={"Content-Type": "application/json"},
        method=method,
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout_s) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8")), None
    except urllib.error.HTTPError as err:
        return err.code, None, _error_code(err.read())
    except (urllib.error.URLError, OSError, ValueError):
        return -1, None, None


def post_plan(
    url: str, payload: Dict, timeout_s: float = 60.0
) -> Sample:
    """POST one planning request; never raises (errors become samples)."""
    body = json.dumps(payload).encode("utf-8")
    t0 = time.perf_counter()
    status, data, code = _request_json(
        url.rstrip("/") + "/v1/plan", body, timeout_s, "POST"
    )
    return Sample(
        status,
        time.perf_counter() - t0,
        data.get("cache") if data else None,
        error_code=code,
    )


def post_job(url: str, payload: Dict, timeout_s: float = 60.0) -> Sample:
    """Solve one request via the jobs API: submit, then long-poll.

    The sample's latency spans submit through terminal state — the
    apples-to-apples number against :func:`post_plan` — and a job that
    ends ``failed``/``expired`` becomes a 500/504-shaped error sample
    with the job's error code.
    """
    base = url.rstrip("/")
    body = json.dumps(payload).encode("utf-8")
    t0 = time.perf_counter()
    status, data, code = _request_json(
        base + "/v1/jobs", body, timeout_s, "POST"
    )
    if status != 202 or data is None:
        return Sample(status, time.perf_counter() - t0, error_code=code)
    job = data.get("job", {})
    job_id = job.get("id")
    deadline = t0 + timeout_s
    while job.get("status") not in ("done", "failed", "expired"):
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            return Sample(
                504, time.perf_counter() - t0, error_code="timeout"
            )
        wait = max(0.05, min(remaining, 30.0))
        status, data, code = _request_json(
            f"{base}/v1/jobs/{job_id}?wait={wait:.3f}", None,
            timeout_s, "GET",
        )
        if status != 200 or data is None:
            return Sample(status, time.perf_counter() - t0, error_code=code)
        job = data.get("job", {})
    elapsed = time.perf_counter() - t0
    if job.get("status") == "done":
        return Sample(200, elapsed, data.get("cache"))
    job_error = job.get("error") or {}
    code = job_error.get("code") or "internal"
    return Sample(504 if code == "timeout" else 500, elapsed, error_code=code)


def run_load(config: LoadConfig) -> LoadReport:
    """Execute one load run and aggregate the outcome."""
    variants = build_requests(config)
    fire_one = post_job if config.api == "jobs" else post_plan
    cold: List[float] = []
    cold_lock = threading.Lock()
    cold_burst_s = 0.0

    def _warm_one(payload: Dict) -> None:
        sample = fire_one(config.url, payload, config.timeout_s)
        if sample.status == 200 and sample.cache == "miss":
            with cold_lock:
                cold.append(sample.latency_s)

    if config.warm:
        burst_t0 = time.perf_counter()
        if config.cold_concurrency > 1:
            # fire the whole mix N-at-a-time: wall clock over the burst
            # is the cold *throughput* the solver pool determines
            pending = list(variants)
            while pending:
                batch = pending[: config.cold_concurrency]
                pending = pending[config.cold_concurrency:]
                threads = [
                    threading.Thread(
                        target=_warm_one, args=(p,), daemon=True
                    )
                    for p in batch
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
        else:
            for payload in variants:
                _warm_one(payload)
        cold_burst_s = time.perf_counter() - burst_t0

    samples: List[Sample] = []
    lock = threading.Lock()
    counter = {"next": 0}

    def _take_index() -> Optional[int]:
        with lock:
            i = counter["next"]
            if i >= config.requests:
                return None
            counter["next"] = i + 1
            return i

    def _fire(i: int) -> None:
        sample = fire_one(
            config.url, variants[i % len(variants)], config.timeout_s
        )
        with lock:
            samples.append(sample)

    t0 = time.perf_counter()
    if config.mode == "open":
        rng = ensure_rng(config.seed)
        gaps = rng.exponential(
            1.0 / max(config.rate, 1e-9), size=config.requests
        )
        threads = []
        for i in range(config.requests):
            if i:
                time.sleep(float(gaps[i]))
            t = threading.Thread(target=_fire, args=(i,), daemon=True)
            t.start()
            threads.append(t)
        for t in threads:
            t.join(timeout=config.timeout_s)
    else:

        def _client() -> None:
            while True:
                i = _take_index()
                if i is None:
                    return
                _fire(i)

        threads = [
            threading.Thread(target=_client, daemon=True)
            for _ in range(config.clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    duration = time.perf_counter() - t0

    probes: List[float] = []
    for i in range(config.probes if config.warm else 0):
        sample = fire_one(
            config.url, variants[i % len(variants)], config.timeout_s
        )
        if sample.status == 200 and sample.cache in HIT_OUTCOMES:
            probes.append(sample.latency_s)
    return LoadReport(
        config=config,
        duration_s=duration,
        samples=samples,
        cold_latencies=cold,
        probe_latencies=probes,
        cold_burst_s=cold_burst_s,
    )


def report_record(
    report: LoadReport, seed: int, repetition: int
) -> Dict[str, object]:
    """One warehouse-ingestable ``repro.obs/v1`` record of a load run."""
    cfg = report.config
    record = obs.build_run_record(
        run_id="serve_loadgen",
        config={
            "benchmark": "serve_loadgen",
            "mode": cfg.mode,
            "api": cfg.api,
            "clients": cfg.clients,
            "requests": cfg.requests,
            "mix": cfg.mix,
            "machine": cfg.machine,
            "num_gpus": cfg.num_gpus,
            "num_ssds": cfg.num_ssds,
            "cold_concurrency": cfg.cold_concurrency,
        },
        derived={"bench": report.data()},
        meta=obs.run_metadata(seed=seed, repetition=repetition),
    )
    record["elapsed_s"] = report.duration_s
    return record


def _spawn_server(args) -> Tuple[str, object]:
    """Start an in-process service + HTTP server; returns (url, stop)."""
    from repro.serve.http import make_server, server_url
    from repro.serve.service import PlanService, ServeConfig

    service = PlanService(
        ServeConfig(
            workers=args.workers,
            queue_size=args.queue_size,
            cache_size=args.cache_size,
            solver_processes=args.solver_processes,
            cache_path=args.cache_path,
        )
    ).start()
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()

    def _stop() -> None:
        server.shutdown()
        server.server_close()
        service.stop()

    return server_url(server), _stop


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (``python -m tools.loadgen``)."""
    parser = argparse.ArgumentParser(
        description="synthetic traffic driver for repro.serve"
    )
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--url", help="base URL of a running server")
    target.add_argument(
        "--spawn",
        action="store_true",
        help="spawn an in-process server on an ephemeral port",
    )
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--requests", type=int, default=64)
    parser.add_argument("--mode", choices=("closed", "open"), default="closed")
    parser.add_argument(
        "--rate", type=float, default=50.0, help="open-loop arrivals/s"
    )
    parser.add_argument("--mix", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument("--no-warm", action="store_true")
    parser.add_argument("--timeout", type=float, default=60.0)
    parser.add_argument("--machine", default="machine_a")
    parser.add_argument("--gpus", type=int, default=2)
    parser.add_argument("--ssds", type=int, default=3)
    parser.add_argument("--sample-batches", type=int, default=3)
    parser.add_argument("--vertices", type=int, default=2000)
    parser.add_argument(
        "--json-out", help="append one repro.obs/v1 record per repetition"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if any repetition saw a non-200 response",
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="--spawn: service workers"
    )
    parser.add_argument(
        "--queue-size", type=int, default=64, help="--spawn: queue bound"
    )
    parser.add_argument(
        "--cache-size", type=int, default=64, help="--spawn: cache entries"
    )
    parser.add_argument(
        "--solver-processes",
        type=int,
        default=0,
        help="--spawn: solver process pool size (0 = in-thread)",
    )
    parser.add_argument(
        "--cache-path", help="--spawn: persistent plan-store path"
    )
    parser.add_argument(
        "--api",
        choices=("plan", "jobs"),
        default="plan",
        help="drive POST /v1/plan (sync) or the jobs API (submit+poll)",
    )
    parser.add_argument(
        "--cold-concurrency",
        type=int,
        default=1,
        help="fire the warm-phase mix N-at-a-time and report "
        "bench:cold_throughput_rps",
    )
    args = parser.parse_args(argv)

    stop = None
    url = args.url
    if args.spawn:
        url, stop = _spawn_server(args)
        print(f"spawned in-process server at {url}", flush=True)

    failures = 0
    try:
        for rep in range(max(1, args.reps)):
            rep_seed = derive_seed(args.seed, rep)
            config = LoadConfig(
                url=url,
                clients=args.clients,
                requests=args.requests,
                mode=args.mode,
                rate=args.rate,
                mix=args.mix,
                seed=int(rep_seed),
                warm=not args.no_warm,
                timeout_s=args.timeout,
                machine=args.machine,
                num_gpus=args.gpus,
                num_ssds=args.ssds,
                sample_batches=args.sample_batches,
                vertices=args.vertices,
                cold_concurrency=args.cold_concurrency,
                api=args.api,
            )
            report = run_load(config)
            failures += report.errors
            print(f"-- repetition {rep} --")
            print(report.summary())
            if args.json_out:
                obs.append_jsonl(
                    args.json_out, report_record(report, int(rep_seed), rep)
                )
    finally:
        if stop is not None:
            stop()
    if args.check and failures:
        print(f"FAIL: {failures} non-200 responses", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
