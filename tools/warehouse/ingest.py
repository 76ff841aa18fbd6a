"""JSONL → run-table ingestion.

Reads heterogeneous record streams — ``repro.obs/v1`` telemetry records
(what ``--json-out`` and the benchmark harness emit), ``repro.run/v1``
system-result records, and whole ``repro.table/v1`` tables — and maps
each to run-table rows.  Malformed or unknown-schema lines are
collected, never fatal: a warehouse must survive a truncated line from
a crashed run (exactly the case the ``--json-out`` mid-epoch flush
exists for).

Metric extraction is deliberately flat and prefixed:

* ``elapsed_s`` and scalar ``derived`` stats straight off the record;
* ``bench:<name>`` — the benchmark's primary scalars (the harness puts
  them under ``derived.bench``);
* ``h:<hist>.p50`` / ``.p90`` / ``.p99`` / ``.mean`` — the tracer's
  per-histogram summaries (span-level latency percentiles);
* ``span:<name>.total_s`` — summed duration per span name;
* ``epoch.*`` / ``replan.*`` — ``repro.run/v1`` scalar outcomes;
* ``fabric.*`` — fabric shape (node/link/tier counts, generator seed),
  with the chassis fingerprint promoted into the ``fabric`` key column
  (from the run record's ``fabric`` summary, or from
  ``fabric.<stat>{fabric=<fp>}`` counters on ``repro.obs/v1`` records).
"""

from __future__ import annotations

import glob
import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

from tools.warehouse.table import RunTable, TABLE_SCHEMA

OBS_SCHEMA = "repro.obs/v1"
RUN_SCHEMA = "repro.run/v1"

#: Histogram summary fields promoted into metric columns.
_HIST_FIELDS = ("mean", "p50", "p90", "p99")


@dataclass
class IngestReport:
    """What one ingest pass read, skipped, and produced."""

    num_lines: int = 0
    num_rows: int = 0
    by_schema: Dict[str, int] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    def note_schema(self, schema: str) -> None:
        self.by_schema[schema] = self.by_schema.get(schema, 0) + 1

    def render(self) -> str:
        lines = [
            f"ingested {self.num_rows} row(s) from {self.num_lines} line(s)"
        ]
        for schema, n in sorted(self.by_schema.items()):
            lines.append(f"  {schema}: {n} record(s)")
        if self.errors:
            lines.append(f"  skipped {len(self.errors)} bad line(s):")
            for err in self.errors[:10]:
                lines.append(f"    {err}")
            if len(self.errors) > 10:
                lines.append(f"    ... and {len(self.errors) - 10} more")
        return "\n".join(lines)


def _scalar(value: object) -> Optional[float]:
    """The float form of a JSON scalar metric (None if not one)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def _fabric_from_counters(
    obs_metrics: Dict[str, object]
) -> Tuple[Optional[str], Dict[str, float]]:
    """(fabric fingerprint, fabric.* metrics) from rendered counters.

    Runs on compiled fabrics emit ``fabric.<stat>{fabric=<fingerprint>}``
    counters (see ``GnnSystem._run``); the label becomes the table's
    ``fabric`` key and the values become ``m:fabric.*`` columns.
    """
    from repro.obs.metrics import parse_key

    fingerprint: Optional[str] = None
    metrics: Dict[str, float] = {}
    for rendered, value in (obs_metrics.get("counters") or {}).items():
        name, labels = parse_key(str(rendered))
        if not name.startswith("fabric."):
            continue
        s = _scalar(value)
        if s is not None:
            metrics[name] = s
        for k, v in labels:
            if k == "fabric" and fingerprint is None:
                fingerprint = v
    return fingerprint, metrics


def _machine_label(meta: Dict[str, object]) -> Optional[str]:
    """Short stable machine descriptor from benchmark metadata."""
    spec = meta.get("machine_spec")
    if isinstance(spec, dict):
        proc = spec.get("processor") or spec.get("system") or "?"
        return f"{proc}/{spec.get('cpu_count', '?')}cpu"
    host = meta.get("hostname")
    return str(host) if host is not None else None


def rows_from_obs_record(
    record: Dict[str, object]
) -> Tuple[Dict[str, object], Dict[str, float]]:
    """(keys, metrics) of one ``repro.obs/v1`` record."""
    meta = record.get("meta") or {}
    config = record.get("config") or {}
    keys: Dict[str, object] = {
        "run_id": record.get("run_id"),
        "benchmark": (
            config.get("benchmark")
            or meta.get("experiment")
            or config.get("experiment")
            or record.get("run_id")
        ),
        "git_sha": meta.get("git_sha"),
        "machine": _machine_label(meta),
        "dataset": meta.get("dataset"),
        "scale_profile": meta.get("scale_profile"),
        "seed": meta.get("seed"),
        "repetition": meta.get("repetition", 0),
        "timestamp_unix_s": record.get("timestamp_unix_s"),
        "source_schema": OBS_SCHEMA,
    }
    metrics: Dict[str, float] = {}
    elapsed = _scalar(record.get("elapsed_s"))
    if elapsed is not None:
        metrics["elapsed_s"] = elapsed

    derived = record.get("derived") or {}
    for name, value in derived.items():
        if name == "bench" and isinstance(value, dict):
            for bname, bval in value.items():
                s = _scalar(bval)
                if s is not None:
                    metrics[f"bench:{bname}"] = s
            continue
        s = _scalar(value)
        if s is not None:
            metrics[name] = s

    obs_metrics = record.get("metrics") or {}
    fabric_fp, fabric_metrics = _fabric_from_counters(obs_metrics)
    if fabric_fp is not None:
        keys["fabric"] = fabric_fp
    metrics.update(fabric_metrics)
    for hist_key, stats in (obs_metrics.get("histograms") or {}).items():
        if not isinstance(stats, dict) or not stats.get("count"):
            continue
        for f in _HIST_FIELDS:
            s = _scalar(stats.get(f))
            if s is not None:
                metrics[f"h:{hist_key}.{f}"] = s

    span_totals: Dict[str, float] = {}
    for span in record.get("spans") or []:
        if not isinstance(span, dict):
            continue
        name = span.get("name")
        dur = _scalar(span.get("duration_s"))
        if name and dur is not None:
            span_totals[str(name)] = span_totals.get(str(name), 0.0) + dur
    for name, total in span_totals.items():
        metrics[f"span:{name}.total_s"] = total
    return keys, metrics


def rows_from_run_record(
    record: Dict[str, object]
) -> Tuple[Dict[str, object], Dict[str, float]]:
    """(keys, metrics) of one ``repro.run/v1`` system-result record."""
    keys: Dict[str, object] = {
        "run_id": f"{record.get('system')}/{record.get('dataset')}",
        "benchmark": record.get("system"),
        "git_sha": record.get("git_sha"),
        "machine": record.get("machine"),
        "dataset": record.get("dataset"),
        "scale_profile": None,
        "seed": record.get("seed"),
        "repetition": record.get("repetition", 0),
        "timestamp_unix_s": None,
        "source_schema": RUN_SCHEMA,
    }
    metrics: Dict[str, float] = {"ok": 1.0 if record.get("ok") else 0.0}
    fabric = record.get("fabric")
    if isinstance(fabric, dict):
        keys["fabric"] = fabric.get("fingerprint")
        for name in ("nodes", "links", "tiers"):
            s = _scalar(fabric.get(name))
            if s is not None:
                metrics[f"fabric.{name}"] = s
        s = _scalar(fabric.get("generator_seed"))
        if s is not None:
            metrics["fabric.generator_seed"] = s
    epoch = record.get("epoch") or {}
    for name in (
        "epoch_seconds",
        "paper_epoch_seconds",
        "seeds_per_s",
        "throughput_bytes_per_s",
        "io_seconds",
        "sample_seconds",
        "compute_seconds",
        "sync_seconds",
    ):
        s = _scalar(epoch.get(name))
        if s is not None:
            metrics[f"epoch.{name}"] = s
    replan = record.get("replan") or {}
    for name in ("time_to_recover_s", "migrated_bytes"):
        s = _scalar(replan.get(name))
        if s is not None:
            metrics[f"replan.{name}"] = s
    return keys, metrics


def ingest_records(
    records: Iterable[Dict[str, object]],
    table: Optional[RunTable] = None,
    report: Optional[IngestReport] = None,
) -> Tuple[RunTable, IngestReport]:
    """Map already-parsed records into run-table rows."""
    table = table if table is not None else RunTable()
    report = report if report is not None else IngestReport()
    for record in records:
        schema = record.get("schema") if isinstance(record, dict) else None
        if schema == OBS_SCHEMA:
            keys, metrics = rows_from_obs_record(record)
        elif schema == RUN_SCHEMA:
            keys, metrics = rows_from_run_record(record)
        elif schema == TABLE_SCHEMA:
            try:
                table.merge(RunTable.from_dict(record))
                report.note_schema(schema)
                report.num_rows = len(table)
            except ValueError as err:
                report.errors.append(f"bad table record: {err}")
            continue
        else:
            report.errors.append(f"unknown schema {schema!r}")
            continue
        table.add_row(keys, metrics)
        report.note_schema(str(schema))
        report.num_rows = len(table)
    return table, report


def ingest_jsonl(
    paths: Union[str, Iterable[str]],
) -> Tuple[RunTable, IngestReport]:
    """Ingest JSONL (or run-table JSON) files into a run-table.

    ``paths`` may contain globs and directories (``*.jsonl`` inside).
    Unreadable files and malformed lines land in the report's
    ``errors``; everything parseable is ingested.
    """
    if isinstance(paths, (str, os.PathLike)):
        paths = [str(paths)]
    table = RunTable()
    report = IngestReport()
    for path in _expand(paths):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:
            report.errors.append(f"{path}: {err}")
            continue
        whole = _whole_table(text)
        if whole is not None:
            # a whole-table JSON file (indented, multi-line, keys sorted)
            report.num_lines += 1
            ingest_records([whole], table, report)
            continue
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            report.num_lines += 1
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                report.errors.append(f"{path}:{lineno}: {err}")
                continue
            if not isinstance(record, dict):
                report.errors.append(
                    f"{path}:{lineno}: not a JSON object"
                )
                continue
            ingest_records([record], table, report)
    return table, report


def _whole_table(text: str) -> Optional[Dict]:
    """``text`` as a run-table record when the whole text is one JSON
    object whose ``schema`` is :data:`TABLE_SCHEMA`; else ``None``."""
    try:
        record = json.loads(text)
    except json.JSONDecodeError:
        return None
    if isinstance(record, dict) and record.get("schema") == TABLE_SCHEMA:
        return record
    return None


def _expand(paths: Iterable[str]) -> List[str]:
    out: List[str] = []
    for p in paths:
        if os.path.isdir(p):
            out.extend(sorted(glob.glob(os.path.join(p, "*.jsonl"))))
            out.extend(sorted(glob.glob(os.path.join(p, "*.json"))))
        elif any(ch in p for ch in "*?["):
            out.extend(sorted(glob.glob(p)))
        else:
            out.append(p)
    return out
