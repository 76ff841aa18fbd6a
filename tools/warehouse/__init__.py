"""tools.warehouse — the results warehouse.

Turns the one-shot benchmark figures into a tracked trajectory:

* :mod:`~tools.warehouse.table` — the columnar run-table
  (``repro.table/v1``, one row per run × repetition);
* :mod:`~tools.warehouse.ingest` — ``repro.obs/v1`` / ``repro.run/v1``
  JSONL → run-table, tolerant of malformed lines;
* :mod:`~tools.warehouse.stats` — t-based CIs, Welch's t-test, noise
  bands;
* :mod:`~tools.warehouse.gate` — the CI perf-regression gate;
* :mod:`~tools.warehouse.report` — summary/compare renderers.

CLI: ``python -m tools.warehouse {ingest,report,compare,gate}``
(schema and methodology documented in EXPERIMENTS.md).
"""

from tools.warehouse.gate import (
    DEFAULT_TRACKED,
    GateConfig,
    GateReport,
    GateVerdict,
    gate,
    metric_direction,
)
from tools.warehouse.ingest import (
    IngestReport,
    ingest_jsonl,
    ingest_records,
)
from tools.warehouse.report import (
    render_compare,
    render_provenance,
    render_table,
)
from tools.warehouse.stats import (
    Summary,
    WelchResult,
    noise_band,
    summarize,
    welch_t,
)
from tools.warehouse.table import (
    KEY_COLUMNS,
    TABLE_SCHEMA,
    RunTable,
    is_metric_column,
    metric_column,
)

__all__ = [
    "DEFAULT_TRACKED",
    "GateConfig",
    "GateReport",
    "GateVerdict",
    "gate",
    "metric_direction",
    "IngestReport",
    "ingest_jsonl",
    "ingest_records",
    "render_compare",
    "render_provenance",
    "render_table",
    "Summary",
    "WelchResult",
    "noise_band",
    "summarize",
    "welch_t",
    "KEY_COLUMNS",
    "TABLE_SCHEMA",
    "RunTable",
    "is_metric_column",
    "metric_column",
]
