"""The results warehouse: run-table, ingest, stats, gate.

Synthetic-fixture tests for the ``tools.warehouse`` machinery (ingest
tolerance of malformed/mixed-schema JSONL, CI math, direction-aware
gating) plus the seed derivation the repeated benchmarks rely on.
"""

import json
from pathlib import Path

import pytest

from repro.utils.rng import derive_seed
from tools.warehouse import (
    GateConfig,
    RunTable,
    gate,
    ingest_jsonl,
    ingest_records,
    metric_direction,
    noise_band,
    render_compare,
    render_table,
    summarize,
    welch_t,
)
from tools.warehouse.__main__ import main as warehouse_main

BASELINES = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"


def obs_record(
    run_id="bench_x",
    repetition=0,
    seed=0,
    sha="deadbeef",
    elapsed=1.0,
    bench=None,
):
    """A minimal but valid ``repro.obs/v1`` record."""
    record = {
        "schema": "repro.obs/v1",
        "run_id": run_id,
        "timestamp_unix_s": 1.7e9,
        "config": {"benchmark": run_id},
        "meta": {
            "git_sha": sha,
            "seed": seed,
            "repetition": repetition,
            "scale_profile": "quick",
            "machine_spec": {"processor": "x86_64", "cpu_count": 8},
        },
        "elapsed_s": elapsed,
        "derived": {"bench": bench or {"candidates_per_s": 100.0}},
        "metrics": {
            "counters": {},
            "gauges": {},
            "histograms": {
                "sim.step_seconds": {
                    "count": 10,
                    "mean": 0.1,
                    "p50": 0.1,
                    "p90": 0.12,
                    "p99": 0.13,
                }
            },
        },
        "spans": [
            {
                "name": "system.run",
                "start_s": 0.0,
                "duration_s": elapsed,
                "depth": 0,
            }
        ],
    }
    return record


class TestRunTable:
    def test_add_filter_values_roundtrip(self, tmp_path):
        t = RunTable()
        for rep, v in enumerate([10.0, 11.0, 12.0]):
            t.add_row(
                {"benchmark": "b", "repetition": rep, "git_sha": "aaa"},
                {"throughput": v},
            )
        assert len(t) == 3
        assert t.metric_names() == ["throughput"]
        assert t.values("throughput", benchmark="b") == [10.0, 11.0, 12.0]
        assert len(t.filter(repetition=1)) == 1
        assert len(t.filter(benchmark="nope")) == 0

        path = tmp_path / "t.json"
        t.save(path)
        back = RunTable.load(path)
        assert list(back.rows()) == list(t.rows())

    def test_unknown_key_column_rejected(self):
        t = RunTable()
        with pytest.raises(KeyError, match="unknown key column"):
            t.add_row({"not_a_key": 1}, {})

    def test_merge_densifies_disjoint_metrics(self):
        a, b = RunTable(), RunTable()
        a.add_row({"benchmark": "x"}, {"m1": 1.0})
        b.add_row({"benchmark": "y"}, {"m2": 2.0})
        a.merge(b)
        rows = list(a.rows())
        assert rows[0]["m:m2"] is None and rows[1]["m:m1"] is None

    def test_from_dict_rejects_bad_schema_and_ragged(self):
        with pytest.raises(ValueError, match="schema"):
            RunTable.from_dict({"schema": "nope/v0", "columns": {}})
        with pytest.raises(ValueError, match="ragged"):
            RunTable.from_dict(
                {
                    "schema": "repro.table/v1",
                    "columns": {"run_id": [1], "benchmark": []},
                }
            )


class TestIngest:
    def test_obs_record_rows(self):
        table, report = ingest_records([obs_record(repetition=2, seed=7)])
        assert len(table) == 1 and not report.errors
        row = next(table.rows())
        assert row["benchmark"] == "bench_x"
        assert row["git_sha"] == "deadbeef"
        assert row["seed"] == 7 and row["repetition"] == 2
        assert row["m:bench:candidates_per_s"] == 100.0
        assert row["m:h:sim.step_seconds.p50"] == 0.1
        assert row["m:span:system.run.total_s"] == 1.0

    def test_run_record_rows(self):
        record = {
            "schema": "repro.run/v1",
            "system": "moment",
            "machine": "machine_a",
            "dataset": "IG",
            "model": "graphsage",
            "num_gpus": 4,
            "seed": 3,
            "repetition": 1,
            "ok": True,
            "epoch": {"seeds_per_s": 123.0, "epoch_seconds": 4.5},
        }
        table, report = ingest_records([record])
        row = next(table.rows())
        assert row["m:epoch.seeds_per_s"] == 123.0
        assert row["seed"] == 3 and row["repetition"] == 1
        assert not report.errors

    def test_malformed_and_mixed_schema_lines(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        lines = [
            json.dumps(obs_record()),
            "{truncated json",  # crashed writer
            json.dumps({"schema": "who/knows"}),
            json.dumps([1, 2, 3]),  # not an object
            "",
            json.dumps(
                {
                    "schema": "repro.run/v1",
                    "system": "moment",
                    "machine": "machine_a",
                    "dataset": "IG",
                    "model": "graphsage",
                    "num_gpus": 4,
                    "ok": False,
                    "oom": "no HBM",
                }
            ),
        ]
        path.write_text("\n".join(lines) + "\n")
        table, report = ingest_jsonl(str(path))
        assert len(table) == 2
        assert len(report.errors) == 3
        assert report.by_schema == {"repro.obs/v1": 1, "repro.run/v1": 1}
        assert "ingested 2 row(s)" in report.render()

    def test_ingest_whole_table_file(self, tmp_path):
        t = RunTable()
        t.add_row({"benchmark": "b"}, {"x": 1.0})
        table_path = tmp_path / "t.json"
        t.save(table_path)
        merged, report = ingest_jsonl(str(table_path))
        assert len(merged) == 1 and not report.errors

    def test_ingest_saved_table_with_schema_key_last(self, tmp_path):
        """``RunTable.save`` sorts keys, so ``"schema"`` comes after the
        columns: a table larger than a few KB is still one table, not
        malformed JSONL."""
        baseline = BASELINES / "warehouse_baseline.json"
        text = baseline.read_text()
        assert len(text) > 2000
        assert text.rindex('"schema"') > 2000
        expected = RunTable.load(baseline)
        merged, report = ingest_jsonl(str(baseline))
        assert not report.errors
        assert len(merged) == len(expected) > 0
        out = tmp_path / "t.json"
        assert warehouse_main(["ingest", str(out), str(baseline), "--strict"]) == 0
        assert len(RunTable.load(out)) == len(expected)

    def test_missing_file_is_an_error_not_a_crash(self):
        table, report = ingest_jsonl("/nonexistent/never.jsonl")
        assert len(table) == 0 and len(report.errors) == 1


class TestStats:
    def test_summarize_known_ci(self):
        s = summarize([10.0, 12.0, 14.0])
        assert s.mean == 12.0 and s.median == 12.0
        assert s.stdev == pytest.approx(2.0)
        # t(0.975, df=2) = 4.3027; half-width = 4.3027 * 2/sqrt(3)
        assert s.ci_halfwidth == pytest.approx(4.969, abs=1e-2)
        assert s.ci_lo < 12.0 < s.ci_hi

    def test_summarize_single_sample(self):
        s = summarize([5.0])
        assert s.n == 1 and s.ci_halfwidth == 0.0 and s.stdev == 0.0
        with pytest.raises(ValueError):
            summarize([])

    def test_welch_distinguishes_shifted_samples(self):
        a = [100.0, 101.0, 99.0, 100.5, 99.5]
        b = [80.0, 81.0, 79.0, 80.5, 79.5]
        r = welch_t(a, b)
        assert r.p_value < 0.001 and r.significant

    def test_welch_identical_constants(self):
        same = welch_t([5.0, 5.0], [5.0, 5.0])
        assert same.p_value == 1.0
        diff = welch_t([5.0, 5.0], [4.0, 4.0])
        assert diff.p_value == 0.0  # zero variance, different means

    def test_welch_needs_two_per_side(self):
        with pytest.raises(ValueError, match=">=2 samples"):
            welch_t([1.0], [1.0, 2.0])

    def test_noise_band_floor_and_growth(self):
        assert noise_band([5.0], floor=0.02) == 0.02
        noisy = [100.0, 140.0, 60.0]
        assert noise_band(noisy, floor=0.02) > 0.02


class TestDirections:
    def test_known_directions(self):
        assert metric_direction("bench:candidates_per_s") == +1
        assert metric_direction("epoch.seeds_per_s") == +1
        assert metric_direction("bench:data:replan") == +1
        assert metric_direction("elapsed_s") == -1
        assert metric_direction("epoch.epoch_seconds") == -1
        assert metric_direction("span:search.run.total_s") == -1
        assert metric_direction("qpi_share") == 0


def _table(bench, metric, values, sha="aaa"):
    t = RunTable()
    for rep, v in enumerate(values):
        t.add_row(
            {"benchmark": bench, "repetition": rep, "git_sha": sha},
            {metric: v},
        )
    return t


class TestGate:
    METRIC = "bench:candidates_per_s"

    def test_same_values_pass(self):
        base = _table("b", self.METRIC, [100.0, 102.0, 98.0])
        report = gate(base, base)
        assert report.ok and len(report.verdicts) == 1

    def test_twenty_percent_drop_fails(self):
        base = _table("b", self.METRIC, [100.0, 102.0, 98.0])
        cand = _table("b", self.METRIC, [80.0, 81.6, 78.4], sha="bbb")
        report = gate(base, cand)
        assert not report.ok
        v = report.failures[0]
        assert v.rel_change == pytest.approx(-0.2, abs=1e-6)
        assert v.p_value is not None and v.p_value < 0.05

    def test_injected_regression_hook(self):
        base = _table("b", self.METRIC, [100.0, 102.0, 98.0])
        assert gate(base, base, GateConfig(inject_regression=0.2)).ok is False
        # deterministic (zero-variance) metrics also fail on injection
        det = _table("b", "bench:data:replan", [0.87, 0.87, 0.87])
        assert gate(det, det, GateConfig(inject_regression=0.2)).ok is False

    def test_drop_within_noise_passes(self):
        base = _table("b", self.METRIC, [100.0, 130.0, 70.0])
        cand = _table("b", self.METRIC, [95.0, 123.5, 66.5], sha="bbb")
        report = gate(base, cand)  # 5% drop, ~37% noise band
        assert report.ok

    def test_single_rep_falls_back_to_threshold(self):
        base = _table("b", self.METRIC, [100.0])
        bad = _table("b", self.METRIC, [80.0], sha="bbb")
        close = _table("b", self.METRIC, [97.0], sha="bbb")
        assert not gate(base, bad).ok
        assert gate(base, close).ok
        assert gate(base, bad).verdicts[0].p_value is None

    def test_lower_is_better_direction(self):
        base = _table("b", "elapsed_s", [1.0, 1.01, 0.99])
        slower = _table("b", "elapsed_s", [1.3, 1.31, 1.29], sha="bbb")
        faster = _table("b", "elapsed_s", [0.8, 0.81, 0.79], sha="bbb")
        assert not gate(base, slower, GateConfig(metrics=("elapsed_s",))).ok
        assert gate(base, faster, GateConfig(metrics=("elapsed_s",))).ok

    def test_unknown_direction_skipped_by_default(self):
        base = _table("b", "qpi_share", [0.1, 0.1, 0.1])
        report = gate(base, base, GateConfig(metrics=None))
        assert not report.verdicts  # nothing tracked
        # explicitly requested metrics are judged (higher assumed better)
        report = gate(base, base, GateConfig(metrics=("qpi_share",)))
        assert len(report.verdicts) == 1

    def test_render_mentions_verdict(self):
        base = _table("b", self.METRIC, [100.0, 102.0, 98.0])
        assert "OK" in gate(base, base).render()


class TestRenderers:
    def test_render_table_and_compare(self):
        base = _table("b", "bench:candidates_per_s", [100.0, 102.0, 98.0])
        out = render_table(base)
        assert "bench:candidates_per_s" in out and "3" in out
        cmp_out = render_compare(base, base)
        assert "indistinguishable" in cmp_out

    def test_render_table_folds_span_columns(self):
        t = RunTable()
        t.add_row(
            {"benchmark": "b"},
            {"elapsed_s": 1.0, "span:system.run.total_s": 0.9},
        )
        assert "span:" not in render_table(t)
        assert "span:" in render_table(t, spans=True)


class TestCli:
    def test_ingest_report_gate_cycle(self, tmp_path, capsys):
        jsonl = tmp_path / "runs.jsonl"
        with open(jsonl, "w") as fh:
            for rep, v in enumerate([100.0, 101.0, 99.0]):
                fh.write(
                    json.dumps(
                        obs_record(
                            repetition=rep,
                            bench={"candidates_per_s": v},
                            elapsed=1.0 + rep * 0.01,
                        )
                    )
                    + "\n"
                )
        table = tmp_path / "table.json"
        assert warehouse_main(["ingest", str(table), str(jsonl)]) == 0
        assert warehouse_main(["report", str(table)]) == 0
        assert (
            warehouse_main(
                ["gate", "--baseline", str(table), "--candidate", str(table)]
            )
            == 0
        )
        assert (
            warehouse_main(
                [
                    "gate",
                    "--baseline",
                    str(table),
                    "--candidate",
                    str(table),
                    "--inject-regression",
                    "0.2",
                ]
            )
            == 1
        )
        assert (
            warehouse_main(
                ["compare", str(table), str(table), "--metric", "elapsed_s"]
            )
            == 0
        )
        capsys.readouterr()

    def test_gate_with_no_shared_metric_exits_2(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        _table("x", "only_in_a", [1.0]).save(a)
        _table("y", "only_in_b", [1.0]).save(b)
        assert (
            warehouse_main(["gate", "--baseline", str(a), "--candidate", str(b)])
            == 2
        )
        capsys.readouterr()

    def test_ingest_strict_fails_on_bad_lines(self, tmp_path, capsys):
        jsonl = tmp_path / "bad.jsonl"
        jsonl.write_text("{nope\n")
        table = tmp_path / "t.json"
        assert (
            warehouse_main(["ingest", str(table), str(jsonl), "--strict"]) == 1
        )
        capsys.readouterr()


class TestSeedDerivation:
    def test_repetition_zero_is_canonical(self):
        assert derive_seed(7, 0) == 7
        assert derive_seed(None, 0) == 0

    def test_derived_seeds_are_stable_and_distinct(self):
        seeds = [derive_seed(0, r) for r in range(5)]
        assert seeds == [derive_seed(0, r) for r in range(5)]
        assert len(set(seeds)) == 5
        assert [derive_seed(1, r) for r in range(5)][1:] != seeds[1:]

    def test_rejects_generator_and_negative(self):
        import numpy as np

        with pytest.raises(TypeError, match="integer"):
            derive_seed(np.random.default_rng(0), 1)
        with pytest.raises(ValueError, match="repetition"):
            derive_seed(0, -1)
