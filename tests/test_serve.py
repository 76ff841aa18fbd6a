"""Tests for the plan-serving layer (repro.serve).

The service core is exercised in-process with injected stub planners
(deterministic, slow, or blocking — each HTTP status path on demand);
the HTTP layer with a real ThreadingHTTPServer on an ephemeral port,
including the acceptance demo: 100 concurrent clients, zero errors,
cache hits an order of magnitude under the cold solve.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.serve import (
    PlanCache,
    PlanService,
    PlanStore,
    RequestError,
    ServeConfig,
    cache_key,
    make_server,
    parse_request,
    server_url,
)
from repro.serve.planner import resolve_machine
from tools.loadgen import LoadConfig, report_record, run_load


# ----------------------------------------------------------------------
# schema: parsing + cache-key normalization
# ----------------------------------------------------------------------
TINY_REQUEST = {
    "schema": "repro.serve/v1",
    "dataset": {"key": "TINY", "num_vertices": 1000},
    "machine": "machine_a",
    "num_gpus": 2,
    "num_ssds": 3,
    "sample_batches": 2,
}


class TestParseRequest:
    def test_defaults(self):
        req = parse_request({"dataset": {"key": "TINY"}})
        assert req.machine == "machine_a"
        assert req.num_gpus == 4 and req.num_ssds == 8
        assert req.fanouts == (25, 10)
        assert req.simulate is True
        assert req.gpu_cache_fraction == 0.6

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({}, "dataset"),
            ({"dataset": {"key": "NOPE"}}, "dataset.key"),
            ({"dataset": {"key": "TINY", "scale": 2}}, "dataset"),
            ({"dataset": {"key": "TINY"}, "num_gpus": 0}, "num_gpus"),
            ({"dataset": {"key": "TINY"}, "num_gpus": True}, "num_gpus"),
            ({"dataset": {"key": "TINY"}, "fanouts": []}, "fanouts"),
            ({"dataset": {"key": "TINY"}, "fanouts": [25, 0]}, "fanouts"),
            ({"dataset": {"key": "TINY"}, "model": "mlp"}, "model"),
            ({"dataset": {"key": "TINY"}, "simulate": 1}, "simulate"),
            ({"dataset": {"key": "TINY"}, "timeout_s": -1}, "timeout_s"),
            ({"dataset": {"key": "TINY"}, "schema": "v0"}, "schema"),
            (
                {"dataset": {"key": "TINY"}, "machine": "a", "fabric": {}},
                "machine",
            ),
            (
                {"dataset": {"key": "TINY"}, "optimizer": {"lp_top_k": 2}},
                "optimizer",
            ),
            (
                {"dataset": {"key": "TINY"}, "timeout_s": float("nan")},
                "timeout_s",
            ),
            (
                {"dataset": {"key": "TINY"}, "timeout_s": float("inf")},
                "timeout_s",
            ),
            ({"dataset": {"key": "TINY"}, "timeout_s": 10**400}, "timeout_s"),
            (
                {
                    "dataset": {"key": "TINY"},
                    "optimizer": {"gpu_cache_fraction": float("nan")},
                },
                "optimizer.gpu_cache_fraction",
            ),
            (
                {
                    "dataset": {"key": "TINY"},
                    "optimizer": {"cpu_cache_vertex_fraction": float("-inf")},
                },
                "optimizer.cpu_cache_vertex_fraction",
            ),
            (
                {"dataset": {"key": "PA", "scale": float("inf")}},
                "dataset.scale",
            ),
        ],
    )
    def test_rejections_carry_field(self, payload, field):
        with pytest.raises(RequestError) as exc:
            parse_request(payload)
        assert exc.value.field == field
        body = exc.value.to_body()
        assert body["schema"] == "repro.serve/v1.1"
        assert body["error"]["code"] == "bad_request"
        assert body["error"]["detail"]["field"] == field

    def test_v1_schema_still_accepted(self):
        req = parse_request(
            {"schema": "repro.serve/v1", "dataset": {"key": "TINY"}}
        )
        assert req.machine == "machine_a"

    def test_unknown_top_level_field(self):
        with pytest.raises(RequestError, match="unknown field"):
            parse_request({"dataset": {"key": "TINY"}, "spice": 1})

    def test_non_object_body(self):
        with pytest.raises(RequestError, match="JSON object"):
            parse_request([1, 2, 3])

    def test_path_shaped_machine_rejected(self):
        req = parse_request(
            {"dataset": {"key": "TINY"}, "machine": "specs/machine_a.json"}
        )
        with pytest.raises(RequestError, match="file path"):
            resolve_machine(req)

    def test_unknown_machine_rejected(self):
        req = parse_request(
            {"dataset": {"key": "TINY"}, "machine": "machine_zzz"}
        )
        with pytest.raises(RequestError, match="unknown machine"):
            resolve_machine(req)


class TestCacheKey:
    def test_defaults_key_like_explicit_defaults(self):
        a = parse_request({"dataset": {"key": "TINY"}})
        b = parse_request(
            {
                "dataset": {"key": "TINY", "num_vertices": 2000, "seed": 0},
                "machine": "machine_a",
                "num_gpus": 4,
                "num_ssds": 8,
                "model": "GraphSAGE",
                "fanouts": [25, 10],
                "optimizer": {"gpu_cache_fraction": 0.6},
            }
        )
        ma = resolve_machine(a)
        assert cache_key(a, ma) == cache_key(b, resolve_machine(b))

    def test_machine_name_and_inline_fabric_share_keys(self):
        from repro.hardware.fabric import machine_a_spec

        named = parse_request({"dataset": {"key": "TINY"}})
        inline = parse_request(
            {
                "dataset": {"key": "TINY"},
                "fabric": machine_a_spec().to_dict(),
            }
        )
        assert cache_key(named, resolve_machine(named)) == cache_key(
            inline, resolve_machine(inline)
        )

    def test_distinct_solves_get_distinct_keys(self):
        base = parse_request({"dataset": {"key": "TINY"}})
        machine = resolve_machine(base)
        for variant in (
            {"dataset": {"key": "TINY"}, "seed": 1},
            {"dataset": {"key": "TINY", "num_vertices": 3000}},
            {"dataset": {"key": "TINY"}, "num_gpus": 2},
            {"dataset": {"key": "TINY"}, "fanouts": [10, 5]},
            {"dataset": {"key": "TINY"}, "simulate": False},
            {"dataset": {"key": "TINY"}, "machine": "machine_b"},
            {
                "dataset": {"key": "TINY"},
                "optimizer": {"gpu_cache_fraction": 0.5},
            },
        ):
            req = parse_request(variant)
            assert cache_key(req, resolve_machine(req)) != cache_key(
                base, machine
            )


class TestPlanCache:
    def test_lru_eviction_order(self):
        cache = PlanCache(2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        assert cache.get(("a",)) == 1  # refresh: b is now least-recent
        cache.put(("c",), 3)
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == 1 and cache.get(("c",)) == 3
        assert len(cache) == 2

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            PlanCache(0)


# ----------------------------------------------------------------------
# service core with stub planners
# ----------------------------------------------------------------------
def make_service(planner, **cfg):
    service = PlanService(
        ServeConfig(**{"workers": 2, "queue_size": 8, **cfg}),
        planner=planner,
    )
    return service.start()


class TestServiceCore:
    def test_miss_then_hit_counters(self):
        calls = []

        def planner(request, machine):
            calls.append(request.seed)
            return {"plan": {"seed": request.seed}, "verdict": {"ok": True}}

        with make_service(planner) as svc:
            first = svc.handle(TINY_REQUEST)
            second = svc.handle(TINY_REQUEST)
        assert first.status == second.status == 200
        assert first.body["cache"] == "miss"
        assert second.body["cache"] == "hit"
        assert first.body["plan"] == second.body["plan"]
        assert first.body["timing"]["solve_s"] is not None
        assert calls == [0]
        assert svc.stats["cache_misses"] == 1
        assert svc.stats["cache_hits"] == 1

    def test_single_flight_runs_one_solve(self):
        release = threading.Event()
        calls = []

        def planner(request, machine):
            calls.append(1)
            release.wait(timeout=5)
            return {"plan": {"n": len(calls)}, "verdict": {"ok": True}}

        with make_service(planner, workers=2) as svc:
            results = []

            def client():
                results.append(svc.handle(TINY_REQUEST))

            threads = [
                threading.Thread(target=client) for _ in range(6)
            ]
            for t in threads:
                t.start()
            # wait until the leader's solve is actually in flight
            deadline = time.time() + 5
            while not calls and time.time() < deadline:
                time.sleep(0.005)
            time.sleep(0.05)  # let followers pile onto the same job
            release.set()
            for t in threads:
                t.join(timeout=5)

        assert len(calls) == 1, "identical concurrent requests must share one solve"
        assert len(results) == 6
        assert all(r.status == 200 for r in results)
        assert all(r.body["plan"] == {"n": 1} for r in results)
        outcomes = sorted(r.body["cache"] for r in results)
        assert outcomes.count("miss") == 1
        assert outcomes.count("single_flight") == 5
        assert svc.stats["single_flight"] == 5

    def test_queue_full_returns_429_with_retry_after(self):
        release = threading.Event()

        def planner(request, machine):
            release.wait(timeout=10)
            return {"plan": {}, "verdict": {"ok": True}}

        svc = make_service(planner, workers=1, queue_size=1)
        try:
            distinct = [
                dict(TINY_REQUEST, seed=i) for i in range(3)
            ]
            threads = [
                threading.Thread(target=svc.handle, args=(distinct[i],))
                for i in range(2)
            ]
            threads[0].start()
            # worker must have dequeued request 0 before 1 can queue
            deadline = time.time() + 5
            while (
                svc._queue.qsize() > 0 or not svc._inflight
            ) and time.time() < deadline:
                time.sleep(0.005)
            threads[1].start()
            deadline = time.time() + 5
            while svc._queue.qsize() < 1 and time.time() < deadline:
                time.sleep(0.005)

            rejected = svc.handle(distinct[2])
            assert rejected.status == 429
            assert rejected.body["error"]["code"] == "queue_full"
            assert int(rejected.headers["Retry-After"]) >= 1
            assert svc.stats["rejected"] == 1
        finally:
            release.set()
            for t in threads:
                t.join(timeout=5)
            svc.stop()

    def test_timeout_returns_504_and_late_result_seeds_cache(self):
        started = threading.Event()

        def planner(request, machine):
            started.set()
            time.sleep(0.4)
            return {"plan": {"late": True}, "verdict": {"ok": True}}

        with make_service(planner) as svc:
            slow = dict(TINY_REQUEST, timeout_s=0.05)
            t0 = time.perf_counter()
            response = svc.handle(slow)
            waited = time.perf_counter() - t0
            assert response.status == 504
            assert response.body["error"]["code"] == "timeout"
            # the 504 hands the client the job id to poll instead
            job_id = response.body["error"]["detail"]["job_id"]
            assert svc.get_job(job_id).status == 200
            assert waited < 0.3, "504 must fire at the deadline, not the solve"
            assert svc.stats["timeouts"] == 1

            # the solve was not killed: once it lands, the cache serves it
            deadline = time.time() + 5
            while svc._inflight and time.time() < deadline:
                time.sleep(0.02)
            again = svc.handle(slow)
            assert again.status == 200
            assert again.body["cache"] == "hit"
            assert again.body["plan"] == {"late": True}

    def test_expired_queued_job_is_cancelled_not_solved(self):
        release = threading.Event()
        solved = []

        def planner(request, machine):
            if request.seed == 0:
                release.wait(timeout=10)
            solved.append(request.seed)
            return {"plan": {}, "verdict": {"ok": True}}

        svc = make_service(planner, workers=1, queue_size=4)
        try:
            blocker = threading.Thread(
                target=svc.handle, args=(dict(TINY_REQUEST, seed=0),)
            )
            blocker.start()
            deadline = time.time() + 5
            while not svc._inflight and time.time() < deadline:
                time.sleep(0.005)
            # queued behind the blocker with a deadline it cannot make
            doomed = svc.handle(
                dict(TINY_REQUEST, seed=1, timeout_s=0.05)
            )
            assert doomed.status == 504
            release.set()
            blocker.join(timeout=5)
            deadline = time.time() + 5
            while svc.stats["cancelled"] < 1 and time.time() < deadline:
                time.sleep(0.01)
            assert svc.stats["cancelled"] == 1
            assert solved == [0], "the expired job must never start its solve"
        finally:
            release.set()
            svc.stop()

    def test_planner_crash_returns_500(self):
        def planner(request, machine):
            raise RuntimeError("boom")

        with make_service(planner) as svc:
            response = svc.handle(TINY_REQUEST)
        assert response.status == 500
        assert response.body["error"]["code"] == "internal"
        assert "boom" in response.body["error"]["message"]

    def test_malformed_spec_rejected_before_queueing(self):
        def planner(request, machine):  # pragma: no cover - must not run
            raise AssertionError("planner must not see bad requests")

        with make_service(planner) as svc:
            response = svc.handle({"dataset": {"key": "NOPE"}})
        assert response.status == 400
        assert response.body["error"]["code"] == "bad_request"
        assert response.body["error"]["detail"]["field"] == "dataset.key"
        assert svc.stats["bad_requests"] == 1

    def test_serve_metrics_recorded(self):
        def planner(request, machine):
            return {"plan": {}, "verdict": {"ok": True}}

        with obs.capture() as tel:
            with make_service(planner) as svc:
                svc.handle(TINY_REQUEST)
                svc.handle(TINY_REQUEST)
                svc.handle({"dataset": {"key": "NOPE"}})
        counters = tel.registry.snapshot()["counters"]
        assert counters["serve.requests"] == 3
        assert counters["serve.cache.miss"] == 1
        assert counters["serve.cache.hit"] == 1
        assert counters["serve.bad_requests"] == 1
        spans = [s.name for s in tel.tracer.spans]
        assert spans.count("serve.request") == 3
        hist = tel.registry.snapshot()["histograms"]
        assert any(k.startswith("serve.latency") for k in hist)


# ----------------------------------------------------------------------
# jobs API: submit / poll / long-poll / terminal states
# ----------------------------------------------------------------------
class TestJobsApi:
    def test_submit_then_poll_lifecycle(self):
        release = threading.Event()

        def planner(request, machine):
            release.wait(timeout=10)
            return {"plan": {"seed": request.seed}, "verdict": {"ok": True}}

        with make_service(planner) as svc:
            submitted = svc.submit_job(TINY_REQUEST)
            assert submitted.status == 202
            job = submitted.body["job"]
            assert job["status"] in ("queued", "running")
            assert submitted.headers["Location"] == f"/v1/jobs/{job['id']}"
            assert "plan" not in submitted.body

            pending = svc.get_job(job["id"])
            assert pending.status == 200
            assert pending.body["job"]["status"] in ("queued", "running")

            release.set()
            done = svc.get_job(job["id"], wait_s=10.0)
            assert done.status == 200
            assert done.body["job"]["status"] == "done"
            assert done.body["plan"] == {"seed": 0}
            assert done.body["cache"] == "miss"
            assert done.body["job"]["solve_s"] is not None

    def test_job_outlives_sync_plan_timeout(self):
        """The acceptance path: a solve longer than the plan timeout
        still completes via the jobs API."""

        def planner(request, machine):
            time.sleep(0.3)
            return {"plan": {"slow": True}, "verdict": {"ok": True}}

        with make_service(planner) as svc:
            sync = svc.handle(dict(TINY_REQUEST, timeout_s=0.05))
            assert sync.status == 504
            job_id = sync.body["error"]["detail"]["job_id"]
            done = svc.get_job(job_id, wait_s=10.0)
            assert done.status == 200
            assert done.body["job"]["status"] == "done"
            assert done.body["plan"] == {"slow": True}

    def test_submit_on_warm_cache_returns_done_job(self):
        def planner(request, machine):
            return {"plan": {}, "verdict": {"ok": True}}

        with make_service(planner) as svc:
            assert svc.handle(TINY_REQUEST).status == 200
            submitted = svc.submit_job(TINY_REQUEST)
            assert submitted.status == 202
            assert submitted.body["job"]["status"] == "done"
            assert submitted.body["cache"] == "hit"

    def test_concurrent_submits_share_one_job(self):
        release = threading.Event()
        calls = []

        def planner(request, machine):
            calls.append(1)
            release.wait(timeout=10)
            return {"plan": {}, "verdict": {"ok": True}}

        with make_service(planner) as svc:
            first = svc.submit_job(TINY_REQUEST)
            second = svc.submit_job(TINY_REQUEST)
            assert first.body["job"]["id"] == second.body["job"]["id"]
            release.set()
            done = svc.get_job(first.body["job"]["id"], wait_s=10.0)
            assert done.body["job"]["status"] == "done"
        assert len(calls) == 1

    def test_failed_job_carries_error_code(self):
        def planner(request, machine):
            raise RuntimeError("boom")

        with make_service(planner) as svc:
            submitted = svc.submit_job(TINY_REQUEST)
            failed = svc.get_job(submitted.body["job"]["id"], wait_s=10.0)
            assert failed.status == 200
            assert failed.body["job"]["status"] == "failed"
            assert failed.body["job"]["error"]["code"] == "internal"
            assert "boom" in failed.body["job"]["error"]["message"]
            assert "plan" not in failed.body

    def test_unknown_job_is_404(self):
        def planner(request, machine):
            return {"plan": {}, "verdict": {"ok": True}}

        with make_service(planner) as svc:
            missing = svc.get_job("j-nope")
            assert missing.status == 404
            assert missing.body["error"]["code"] == "job_not_found"
            assert missing.body["error"]["detail"]["job_id"] == "j-nope"

    def test_terminal_jobs_reaped_after_ttl(self):
        def planner(request, machine):
            return {"plan": {}, "verdict": {"ok": True}}

        with make_service(planner, job_ttl_s=0.05) as svc:
            submitted = svc.submit_job(TINY_REQUEST)
            job_id = submitted.body["job"]["id"]
            assert svc.get_job(job_id, wait_s=5.0).body["job"]["status"] == "done"
            time.sleep(0.1)
            reaped = svc.get_job(job_id)
            assert reaped.status == 404
            assert reaped.body["error"]["code"] == "job_not_found"

    def test_expired_queued_job_reports_expired_state(self):
        release = threading.Event()

        def planner(request, machine):
            if request.seed == 0:
                release.wait(timeout=10)
            return {"plan": {}, "verdict": {"ok": True}}

        svc = make_service(planner, workers=1, queue_size=4)
        try:
            blocker = threading.Thread(
                target=svc.handle, args=(dict(TINY_REQUEST, seed=0),)
            )
            blocker.start()
            deadline = time.time() + 5
            while not svc._inflight and time.time() < deadline:
                time.sleep(0.005)
            doomed = svc.handle(dict(TINY_REQUEST, seed=1, timeout_s=0.05))
            assert doomed.status == 504
            job_id = doomed.body["error"]["detail"]["job_id"]
            release.set()
            blocker.join(timeout=5)
            expired = svc.get_job(job_id, wait_s=5.0)
            assert expired.body["job"]["status"] == "expired"
            assert expired.body["job"]["error"]["code"] == "timeout"
        finally:
            release.set()
            svc.stop()


# ----------------------------------------------------------------------
# Retry-After calibration: drain estimate uses solver parallelism
# ----------------------------------------------------------------------
class TestRetryAfterCalibration:
    @staticmethod
    def _seeded(svc, ewma):
        svc._ewma_solve_s = ewma
        return svc

    def test_process_pool_divides_by_solver_processes(self):
        def planner(request, machine):
            return {"plan": {}, "verdict": {"ok": True}}

        svc = PlanService(
            ServeConfig(workers=2, solver_processes=8), planner=planner
        )
        assert svc.solver_parallelism == 8
        self._seeded(svc, ewma=8.0)
        # empty queue → depth 1 → ceil(1 * 8 / 8) = 1
        assert svc.retry_after_s() == 1

    def test_thread_mode_divides_by_workers(self):
        def planner(request, machine):
            return {"plan": {}, "verdict": {"ok": True}}

        svc = PlanService(ServeConfig(workers=2), planner=planner)
        assert svc.solver_parallelism == 2
        self._seeded(svc, ewma=8.0)
        assert svc.retry_after_s() == 4

    def test_extra_dispatch_threads_spawned_for_pool(self):
        def planner(request, machine):
            return {"plan": {}, "verdict": {"ok": True}}

        svc = PlanService(
            ServeConfig(workers=2, solver_processes=5), planner=planner
        )
        assert svc._thread_count() == 5


# ----------------------------------------------------------------------
# persistent plan store: crash recovery + invalidation
# ----------------------------------------------------------------------
class TestPlanStore:
    KEY_A = ("fp-a", "dataset-a", 0)
    KEY_B = ("fp-b", "dataset-b", 1)

    def test_put_survives_reopen(self, tmp_path):
        path = str(tmp_path / "plans.jsonl")
        store = PlanStore(path)
        store.put(self.KEY_A, {"plan": 1}, machine="machine_a")
        store.put(self.KEY_B, {"plan": 2})

        reopened = PlanStore(path)
        assert reopened.get(self.KEY_A) == {"plan": 1}
        assert reopened.get(self.KEY_B) == {"plan": 2}
        assert len(reopened) == 2
        assert reopened.load_report.quarantined == 0

    def test_plan_payloads_load_with_or_without_the_ceiling_keys(
        self, tmp_path
    ):
        """Payloads are opaque to the store: one stored before the
        ``"search"`` object reported the pass-1 stop still loads."""
        path = str(tmp_path / "plans.jsonl")
        old = {"plan": {"search": {"workers": 1, "num_lp_scored": 48}}}
        new = {
            "plan": {
                "search": {
                    "num_lp_scored": 48,
                    "num_pass1_scored": 288,
                    "ceiling_hits": 48,
                    "ceiling_cut": "SSD egress, 8 × 6.0 GB/s",
                }
            }
        }
        store = PlanStore(path)
        store.put(self.KEY_A, old)
        store.put(self.KEY_B, new)
        reopened = PlanStore(path)
        assert reopened.get(self.KEY_A) == old
        assert reopened.get(self.KEY_B) == new
        assert reopened.load_report.quarantined == 0

    def test_truncated_tail_tolerated(self, tmp_path):
        path = str(tmp_path / "plans.jsonl")
        store = PlanStore(path)
        store.put(self.KEY_A, {"plan": 1})
        store.put(self.KEY_B, {"plan": 2})
        # simulate a crash mid-append: chop the final record in half
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[: len(raw) - len(raw) // 4])

        survivor = PlanStore(path)
        assert survivor.get(self.KEY_A) == {"plan": 1}
        assert survivor.get(self.KEY_B) is None
        assert survivor.load_report.truncated_tail is True
        assert survivor.load_report.quarantined == 0
        # and the store still accepts writes after recovery
        survivor.put(self.KEY_B, {"plan": 3})
        assert PlanStore(path).get(self.KEY_B) == {"plan": 3}

    def test_corrupt_interior_line_quarantined_not_fatal(self, tmp_path):
        path = str(tmp_path / "plans.jsonl")
        store = PlanStore(path)
        store.put(self.KEY_A, {"plan": 1})
        with open(path, "ab") as fh:
            fh.write(b'{"schema": "wrong/v9", "op": "put"}\n')
            fh.write(b"not json at all\n")
        store.put(self.KEY_B, {"plan": 2})

        survivor = PlanStore(path)
        assert survivor.get(self.KEY_A) == {"plan": 1}
        assert survivor.get(self.KEY_B) == {"plan": 2}
        assert survivor.load_report.quarantined == 2
        quarantine = open(path + ".quarantine", "rb").read()
        assert b"not json at all" in quarantine
        # quarantined lines are compacted out of the live segment
        assert survivor.load_report.compacted is True
        assert b"not json" not in open(path, "rb").read()

    def test_tombstone_drops_entry_across_reopen(self, tmp_path):
        path = str(tmp_path / "plans.jsonl")
        store = PlanStore(path)
        store.put(self.KEY_A, {"plan": 1})
        store.put(self.KEY_B, {"plan": 2})
        assert store.drop(self.KEY_A) is True
        assert store.drop(self.KEY_A) is False

        reopened = PlanStore(path)
        assert reopened.get(self.KEY_A) is None
        assert reopened.get(self.KEY_B) == {"plan": 2}
        # replaying put+drop compacts down to the single live record
        assert reopened.load_report.compacted is True
        assert len(obs.read_jsonl(path)) == 1

    def test_newest_wins_and_eviction_bound(self, tmp_path):
        path = str(tmp_path / "plans.jsonl")
        store = PlanStore(path, max_entries=2)
        store.put(self.KEY_A, {"plan": 1})
        store.put(self.KEY_A, {"plan": 99})
        store.put(self.KEY_B, {"plan": 2})
        store.put(("fp-c", "c", 2), {"plan": 3})
        assert store.get(self.KEY_A) is None, "oldest evicted at the bound"
        reopened = PlanStore(path, max_entries=2)
        assert reopened.get(self.KEY_B) == {"plan": 2}
        assert reopened.get(("fp-c", "c", 2)) == {"plan": 3}

    def test_sync_registry_drops_stale_named_entries(self, tmp_path):
        path = str(tmp_path / "plans.jsonl")
        store = PlanStore(path)
        store.put(self.KEY_A, {"plan": 1}, machine="machine_gone")
        store.put(self.KEY_B, {"plan": 2}, machine="machine_ok")
        store.put(("fp-inline", "x", 0), {"plan": 3})  # inline fabric

        fingerprints = {"machine_ok": "fp-b"}  # gone resolves to None
        dropped = store.sync_registry(fingerprints.get)
        assert dropped == 1
        assert store.get(self.KEY_A) is None
        assert store.get(self.KEY_B) == {"plan": 2}
        assert store.get(("fp-inline", "x", 0)) == {"plan": 3}

    def test_sync_registry_drops_refingerprinted_entries(self, tmp_path):
        """A name that now compiles to a *different* chassis is stale."""
        path = str(tmp_path / "plans.jsonl")
        store = PlanStore(path)
        store.put(self.KEY_A, {"plan": 1}, machine="machine_a")
        dropped = store.sync_registry(lambda name: "fp-rewired")
        assert dropped == 1
        assert len(store) == 0


class TestServicePersistence:
    def test_restart_answers_from_disk_without_resolving(self, tmp_path):
        path = str(tmp_path / "plans.jsonl")
        calls = []

        def planner(request, machine):
            calls.append(request.seed)
            return {"plan": {"seed": request.seed}, "verdict": {"ok": True}}

        with make_service(planner, cache_path=path) as svc:
            assert svc.handle(TINY_REQUEST).body["cache"] == "miss"
            assert svc.stats["persisted"] == 1

        # new process ⇒ new service over the same segment file
        with make_service(planner, cache_path=path) as svc2:
            warm = svc2.handle(TINY_REQUEST)
            assert warm.status == 200
            # served from the store-warmed LRU — no second solve
            assert warm.body["cache"] == "hit"
            assert warm.body["plan"] == {"seed": 0}
            # cold LRU but warm store ⇒ explicit disk outcome
            svc2.cache.clear()
            disk = svc2.handle(TINY_REQUEST)
            assert disk.body["cache"] == "disk"
            assert svc2.stats["disk_hits"] == 1
        assert calls == [0], "the restarted server must not re-solve"

    def test_kill_mid_append_recovers_prior_plans(self, tmp_path):
        path = str(tmp_path / "plans.jsonl")

        def planner(request, machine):
            return {"plan": {"seed": request.seed}, "verdict": {"ok": True}}

        with make_service(planner, cache_path=path) as svc:
            svc.handle(TINY_REQUEST)
            svc.handle(dict(TINY_REQUEST, seed=1))
        # crash mid-append of a third record: torn partial line
        with open(path, "ab") as fh:
            fh.write(b'{"schema": "repro.servecache/v1", "op": "pu')

        calls = []

        def counting(request, machine):
            calls.append(request.seed)
            return {"plan": {"seed": request.seed}, "verdict": {"ok": True}}

        with make_service(counting, cache_path=path) as svc2:
            assert svc2.store.load_report.truncated_tail is True
            assert svc2.handle(TINY_REQUEST).body["cache"] == "hit"
            assert (
                svc2.handle(dict(TINY_REQUEST, seed=1)).body["cache"]
                == "hit"
            )
        assert calls == []

    def test_invalidate_fingerprint_drops_both_layers(self, tmp_path):
        path = str(tmp_path / "plans.jsonl")

        def planner(request, machine):
            return {"plan": {}, "verdict": {"ok": True}}

        with make_service(planner, cache_path=path) as svc:
            svc.handle(TINY_REQUEST)
            request = parse_request(TINY_REQUEST)
            key = cache_key(request, resolve_machine(request))
            dropped = svc.invalidate_fingerprint(key[0])
            assert dropped == 2  # LRU entry + store entry
            assert svc.stats["invalidated"] == 2
            # next identical request is a fresh miss
            assert svc.handle(TINY_REQUEST).body["cache"] == "miss"

    def test_registry_invalidated_entries_not_served(self, tmp_path):
        """A persisted record whose machine name no longer resolves (or
        resolves to different hardware) must not come back after
        restart."""
        path = str(tmp_path / "plans.jsonl")
        store = PlanStore(path)
        request = parse_request(TINY_REQUEST)
        key = cache_key(request, resolve_machine(request))
        # same key, but recorded against a machine name that is not in
        # the registry any more
        store.put(key, {"plan": {"stale": True}}, machine="machine_gone")

        calls = []

        def planner(req, machine):
            calls.append(req.seed)
            return {"plan": {"fresh": True}, "verdict": {"ok": True}}

        with make_service(planner, cache_path=path) as svc:
            assert svc.stats["invalidated"] == 1
            response = svc.handle(TINY_REQUEST)
            assert response.body["cache"] == "miss"
            assert response.body["plan"] == {"fresh": True}
        assert calls == [0]


# ----------------------------------------------------------------------
# process-pool solvers
# ----------------------------------------------------------------------
class TestProcessPoolSolvers:
    PAYLOAD = {
        "dataset": {"key": "TINY", "num_vertices": 800, "seed": 2},
        "machine": "machine_a",
        "num_gpus": 2,
        "num_ssds": 3,
        "sample_batches": 2,
    }

    @staticmethod
    def _strip_volatile(body):
        body = dict(body)
        for field in ("timing", "job", "solver", "cache"):
            body.pop(field, None)
        plan = body.get("plan")
        if isinstance(plan, dict):
            plan = dict(plan)
            plan.pop("optimize_seconds", None)
            body["plan"] = plan
        return body

    def test_pool_solve_runs_in_child_and_matches_thread_solve(self):
        import os

        with PlanService(ServeConfig(workers=1)) as threaded:
            thread_body = threaded.handle(dict(self.PAYLOAD)).body
        assert thread_body["solver"]["pid"] == os.getpid()

        with PlanService(
            ServeConfig(workers=1, solver_processes=1)
        ) as pooled:
            pool_body = pooled.handle(dict(self.PAYLOAD)).body
        assert pool_body["solver"]["pid"] != os.getpid(), (
            "with --solver-processes the solve must run in a child"
        )
        assert self._strip_volatile(pool_body) == self._strip_volatile(
            thread_body
        ), "process-pool solves must be bit-identical to in-thread solves"

    def test_pool_results_persist_and_hit_after_restart(self, tmp_path):
        path = str(tmp_path / "plans.jsonl")
        with PlanService(
            ServeConfig(workers=1, solver_processes=1, cache_path=path)
        ) as svc:
            assert svc.handle(dict(self.PAYLOAD)).body["cache"] == "miss"
        with PlanService(ServeConfig(workers=1, cache_path=path)) as svc2:
            assert svc2.handle(dict(self.PAYLOAD)).body["cache"] == "hit"

    def test_metrics_report_solver_mode(self):
        with obs.capture() as tel:
            with PlanService(
                ServeConfig(workers=1, solver_processes=1)
            ) as svc:
                svc.handle(dict(self.PAYLOAD))
                snapshot = svc.metrics_snapshot()
        assert snapshot["solver_processes"] == 1
        assert snapshot["solver_parallelism"] == 1
        counters = tel.registry.snapshot()["counters"]
        assert counters.get("serve.solver.solves{mode=process}") == 1
        gauges = tel.registry.snapshot()["gauges"]
        assert gauges.get("serve.solver.processes") == 1


# ----------------------------------------------------------------------
# HTTP layer + end-to-end acceptance
# ----------------------------------------------------------------------
@pytest.fixture()
def live_server():
    service = PlanService(
        ServeConfig(workers=2, queue_size=64, cache_size=64)
    ).start()
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server_url(server), service
    finally:
        server.shutdown()
        server.server_close()
        service.stop()


def http_post(url, payload, timeout=60.0):
    req = urllib.request.Request(
        url + "/v1/plan",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read().decode("utf-8"))


class TestHttpServer:
    def test_plan_roundtrip_and_health(self, live_server):
        url, service = live_server
        status, body = http_post(url, TINY_REQUEST)
        assert status == 200
        assert body["schema"] == "repro.serve/v1.1"
        assert body["cache"] == "miss"
        assert body["verdict"]["ok"] is True
        assert body["plan"]["placement"]
        assert body["result"]["schema"] == "repro.run/v1"

        with urllib.request.urlopen(url + "/v1/health", timeout=10) as resp:
            health = json.loads(resp.read())
        assert health["status"] == "ok"
        with urllib.request.urlopen(url + "/v1/metrics", timeout=10) as resp:
            metrics = json.loads(resp.read())
        assert metrics["requests"] == 1  # only POST /v1/plan counts
        assert metrics["cache_misses"] == 1

    def test_invalid_json_is_400(self, live_server):
        url, _ = live_server
        req = urllib.request.Request(
            url + "/v1/plan",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=10)
        assert exc.value.code == 400
        body = json.loads(exc.value.read())
        assert body["error"]["code"] == "invalid_json"

    @pytest.mark.parametrize(
        "body, field",
        [
            (b'{"dataset": {"key": "TINY"}, "timeout_s": NaN}', "timeout_s"),
            (
                b'{"dataset": {"key": "TINY"}, '
                b'"optimizer": {"gpu_cache_fraction": Infinity}}',
                "optimizer.gpu_cache_fraction",
            ),
        ],
    )
    def test_non_finite_number_is_400(self, live_server, body, field):
        """``json.loads`` accepts the ``NaN`` / ``Infinity`` literals; the
        request is still a 400 naming the field, not a 504 at once."""
        url, _ = live_server
        req = urllib.request.Request(
            url + "/v1/plan",
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=10)
        assert exc.value.code == 400
        error = json.loads(exc.value.read())["error"]
        assert error["code"] == "bad_request"
        assert error["detail"]["field"] == field

    def test_unknown_route_is_404(self, live_server):
        url, _ = live_server
        status, body = http_post(url + "/nope", TINY_REQUEST)
        assert status == 404
        assert body["error"]["code"] == "not_found"

    def test_served_plan_bit_identical_to_direct_api_run(self, live_server):
        url, _ = live_server
        payload = {
            "dataset": {"key": "TINY", "num_vertices": 1500, "seed": 3},
            "machine": "machine_a",
            "num_gpus": 2,
            "num_ssds": 3,
            "sample_batches": 2,
            "seed": 5,
        }
        status, body = http_post(url, payload)
        assert status == 200

        from repro.api import run
        from repro.graphs.datasets import tiny_dataset
        from repro.hardware.registry import get_machine
        from repro.runtime.spec import RunSpec
        from repro.runtime.system import MomentSystem

        dataset = tiny_dataset(num_vertices=1500, seed=3)
        system = MomentSystem(get_machine("machine_a"))
        direct = run(
            system,
            RunSpec(
                dataset=dataset,
                num_gpus=2,
                num_ssds=3,
                sample_batches=2,
                seed=5,
            ),
        )
        assert body["plan"]["placement"] == [
            list(slot) for slot in direct.placement.as_tuple()
        ]
        assert body["verdict"]["paper_epoch_seconds"] == pytest.approx(
            direct.paper_epoch_seconds, rel=0, abs=0
        )
        assert body["result"]["epoch"]["epoch_seconds"] == pytest.approx(
            direct.epoch.epoch_seconds, rel=0, abs=0
        )
        assert body["plan"]["predicted_throughput"] == pytest.approx(
            direct.plan.predicted_throughput, rel=0, abs=0
        )
        search = direct.plan.search
        served = body["plan"]["search"]
        assert (
            served["num_pass1_scored"],
            served["ceiling_hits"],
            served["ceiling_cut"],
        ) == (search.num_pass1_scored, search.ceiling_hits, search.ceiling_cut)

    def test_hundred_concurrent_clients_no_errors_fast_hits(
        self, live_server
    ):
        url, service = live_server
        # one expensive-enough variant so the cold/hit gap is measurable
        payload = dict(TINY_REQUEST, num_gpus=4, num_ssds=8)
        t0 = time.perf_counter()
        status, body = http_post(url, payload)
        cold_wall = time.perf_counter() - t0
        assert status == 200 and body["cache"] == "miss"
        cold_solve = body["timing"]["solve_s"]

        statuses = []
        lock = threading.Lock()

        def client():
            s, b = http_post(url, payload)
            with lock:
                statuses.append((s, b.get("cache")))

        threads = [threading.Thread(target=client) for _ in range(100)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert len(statuses) == 100
        assert all(s == 200 for s, _ in statuses)
        assert all(c == "hit" for _, c in statuses)

        # serial probes isolate the hit path's service time
        probes = []
        for _ in range(10):
            t0 = time.perf_counter()
            s, b = http_post(url, payload)
            probes.append(time.perf_counter() - t0)
            assert s == 200 and b["cache"] == "hit"
        probes.sort()
        hit_median = probes[len(probes) // 2]
        cold = max(cold_solve or 0.0, cold_wall)
        assert hit_median < cold / 10, (
            f"hit median {hit_median * 1e3:.2f}ms vs cold "
            f"{cold * 1e3:.1f}ms — cache hits must be >10x faster"
        )


class TestHttpJobs:
    def test_jobs_roundtrip_over_http(self, live_server):
        url, _ = live_server
        req = urllib.request.Request(
            url + "/v1/jobs",
            data=json.dumps(TINY_REQUEST).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(req, timeout=30) as resp:
            assert resp.status == 202
            submitted = json.loads(resp.read())
            location = resp.headers["Location"]
        job_id = submitted["job"]["id"]
        assert location == f"/v1/jobs/{job_id}"

        with urllib.request.urlopen(
            url + f"/v1/jobs/{job_id}?wait=30", timeout=60
        ) as resp:
            done = json.loads(resp.read())
        assert done["schema"] == "repro.serve/v1.1"
        assert done["job"]["status"] == "done"
        assert done["verdict"]["ok"] is True
        assert done["plan"]["placement"]

    def test_missing_job_404_over_http(self, live_server):
        url, _ = live_server
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(url + "/v1/jobs/nope", timeout=10)
        assert exc.value.code == 404
        body = json.loads(exc.value.read())
        assert body["error"]["code"] == "job_not_found"

    def test_bad_wait_param_is_400(self, live_server):
        url, _ = live_server
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(
                url + "/v1/jobs/any?wait=soon", timeout=10
            )
        assert exc.value.code == 400
        body = json.loads(exc.value.read())
        assert body["error"]["code"] == "bad_request"
        assert body["error"]["detail"]["field"] == "wait"


# ----------------------------------------------------------------------
# loadgen + warehouse integration
# ----------------------------------------------------------------------
class TestLoadgen:
    def test_closed_loop_report_and_warehouse_row(self, live_server, tmp_path):
        url, _ = live_server
        config = LoadConfig(
            url=url, clients=8, requests=24, mix=2, seed=0, probes=4
        )
        report = run_load(config)
        assert len(report.samples) == 24
        assert report.errors == 0
        data = report.data()
        for key in (
            "throughput_rps",
            "latency_p50_s",
            "latency_p95_s",
            "cold_latency_p50_s",
            "cold_throughput_rps",
            "hit_probe_p50_s",
            "hit_speedup",
            "hit_ratio",
        ):
            assert key in data, key
        assert data["throughput_rps"] > 0
        assert data["hit_ratio"] == 1.0  # warmed mix ⇒ all window hits

        record = report_record(report, seed=0, repetition=0)
        sink = tmp_path / "load.jsonl"
        obs.append_jsonl(sink, record)

        from tools.warehouse import ingest_jsonl

        table, ingest = ingest_jsonl([str(sink)])
        assert ingest.num_rows == 1
        row = next(table.rows())
        assert row["benchmark"] == "serve_loadgen"
        assert row["m:bench:latency_p95_s"] > 0
        assert row["m:bench:throughput_rps"] > 0

    def test_open_loop_arrivals_are_seeded(self, live_server):
        url, _ = live_server
        config = LoadConfig(
            url=url,
            clients=4,
            requests=10,
            mode="open",
            rate=200.0,
            mix=2,
            seed=7,
            probes=0,
        )
        report = run_load(config)
        assert len(report.samples) == 10
        assert report.errors == 0

    def test_jobs_api_mode_matches_plan_mode(self, live_server):
        url, _ = live_server
        config = LoadConfig(
            url=url,
            clients=4,
            requests=12,
            mix=2,
            seed=3,
            probes=4,
            api="jobs",
            cold_concurrency=2,
        )
        report = run_load(config)
        assert len(report.samples) == 12
        assert report.errors == 0, report.error_codes()
        data = report.data()
        assert data["hit_ratio"] == 1.0
        assert data["cold_throughput_rps"] > 0


# ----------------------------------------------------------------------
# concurrent JSONL appends (the --json-out fix)
# ----------------------------------------------------------------------
class TestConcurrentAppend:
    def test_parallel_appends_never_interleave(self, tmp_path):
        sink = tmp_path / "records.jsonl"
        threads = 8
        per_thread = 50
        payload = {"filler": "x" * 512}

        def writer(tid):
            for i in range(per_thread):
                obs.append_jsonl(
                    sink,
                    {
                        "schema": "repro.obs/v1",
                        "run_id": f"writer-{tid}",
                        "index": i,
                        **payload,
                    },
                )

        pool = [
            threading.Thread(target=writer, args=(tid,))
            for tid in range(threads)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join()

        records = obs.read_jsonl(sink)  # raises on any corrupt line
        assert len(records) == threads * per_thread
        seen = {(r["run_id"], r["index"]) for r in records}
        assert len(seen) == threads * per_thread
