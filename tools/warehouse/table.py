"""The columnar run-table (schema ``repro.table/v1``).

One row per run × repetition, keyed on provenance (git SHA, machine,
dataset/scale profile, seed, repetition index) with one ``m:``-prefixed
column per metric — the same shape as ``run_table.csv`` in the mubench
replication's results warehouse.  A :class:`RunTable` is what
``python -m tools.warehouse ingest`` produces from a directory of
``repro.obs/v1`` / ``repro.run/v1`` JSONL records, and what ``report`` /
``compare`` / ``gate`` consume.

The store is deliberately plain: a dict of column name -> list, JSON on
disk, no dataframe dependency.  Columns are dense (every row has every
column, missing values are ``None``) so column math stays a one-liner.
"""

from __future__ import annotations

import json
import time
from typing import Dict, Iterator, List, Optional, Union

TABLE_SCHEMA = "repro.table/v1"

#: Provenance columns every row carries (in column order).
KEY_COLUMNS = (
    "run_id",
    "benchmark",
    "git_sha",
    "machine",
    "fabric",
    "dataset",
    "scale_profile",
    "seed",
    "repetition",
    "timestamp_unix_s",
    "source_schema",
)

#: Prefix marking metric (value) columns.
METRIC_PREFIX = "m:"


def metric_column(name: str) -> str:
    """The column name storing metric ``name``."""
    return METRIC_PREFIX + name


def is_metric_column(column: str) -> bool:
    return column.startswith(METRIC_PREFIX)


class RunTable:
    """Columnar store of run×repetition rows.

    >>> t = RunTable()
    >>> t.add_row({"benchmark": "fig10", "seed": 0}, {"seeds_per_s": 1e5})
    >>> t.metric_names()
    ['seeds_per_s']
    """

    def __init__(self) -> None:
        self.columns: Dict[str, List[object]] = {
            k: [] for k in KEY_COLUMNS
        }
        self.created_unix_s = time.time()

    # -- construction ---------------------------------------------------
    def __len__(self) -> int:
        return len(self.columns["run_id"])

    def add_row(
        self,
        keys: Dict[str, object],
        metrics: Dict[str, float],
    ) -> None:
        """Append one run×repetition row.

        ``keys`` may provide any subset of :data:`KEY_COLUMNS` (the rest
        are ``None``); unknown keys raise rather than silently dropping
        provenance.  ``metrics`` maps metric name -> value and creates
        new ``m:`` columns on first sight (back-filled with ``None``).
        """
        unknown = set(keys) - set(KEY_COLUMNS)
        if unknown:
            raise KeyError(
                f"unknown key column(s) {sorted(unknown)}; "
                f"key columns are {list(KEY_COLUMNS)}"
            )
        n = len(self)
        for k in KEY_COLUMNS:
            self.columns[k].append(keys.get(k))
        for name, value in metrics.items():
            col = metric_column(name)
            if col not in self.columns:
                self.columns[col] = [None] * n
            self.columns[col].append(
                None if value is None else float(value)
            )
        # densify columns this row did not touch
        target = n + 1
        for col, values in self.columns.items():
            if len(values) < target:
                values.append(None)

    def merge(self, other: "RunTable") -> "RunTable":
        """Append every row of ``other`` (in place; returns self)."""
        for row in other.rows():
            keys = {k: row.get(k) for k in KEY_COLUMNS}
            metrics = {
                name: row[metric_column(name)]
                for name in other.metric_names()
                if row.get(metric_column(name)) is not None
            }
            self.add_row(keys, metrics)
        return self

    # -- queries --------------------------------------------------------
    def metric_names(self) -> List[str]:
        """All metric names (without the ``m:`` prefix), sorted."""
        return sorted(
            c[len(METRIC_PREFIX):]
            for c in self.columns
            if is_metric_column(c)
        )

    def benchmarks(self) -> List[str]:
        """Distinct non-None benchmark labels, first-seen order."""
        seen: Dict[str, None] = {}
        for b in self.columns["benchmark"]:
            if b is not None:
                seen.setdefault(str(b), None)
        return list(seen)

    def rows(self) -> Iterator[Dict[str, object]]:
        """Row dicts (column name -> value), in insertion order."""
        cols = list(self.columns)
        for i in range(len(self)):
            yield {c: self.columns[c][i] for c in cols}

    def filter(self, **equals: object) -> "RunTable":
        """Rows whose columns equal the given values, as a new table.

        Metric columns may be addressed by bare metric name.
        """
        resolved = {}
        for col, want in equals.items():
            if col not in self.columns and metric_column(col) in self.columns:
                col = metric_column(col)
            if col not in self.columns:
                # no such column: nothing can match
                return RunTable()
            resolved[col] = want
        out = RunTable()
        for row in self.rows():
            if all(row[c] == want for c, want in resolved.items()):
                out.add_row(
                    {k: row[k] for k in KEY_COLUMNS},
                    {
                        name: row[metric_column(name)]
                        for name in self.metric_names()
                        if row.get(metric_column(name)) is not None
                    },
                )
        return out

    def values(
        self, metric: str, benchmark: Optional[str] = None
    ) -> List[float]:
        """Non-None samples of one metric (optionally one benchmark)."""
        col = metric_column(metric)
        if col not in self.columns:
            return []
        out = []
        for i, v in enumerate(self.columns[col]):
            if v is None:
                continue
            if (
                benchmark is not None
                and self.columns["benchmark"][i] != benchmark
            ):
                continue
            out.append(float(v))
        return out

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": TABLE_SCHEMA,
            "created_unix_s": self.created_unix_s,
            "num_rows": len(self),
            "columns": self.columns,
        }

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "RunTable":
        schema = record.get("schema")
        if schema != TABLE_SCHEMA:
            raise ValueError(
                f"unsupported run-table schema {schema!r}; "
                f"expected {TABLE_SCHEMA!r}"
            )
        table = cls()
        columns = record.get("columns")
        if not isinstance(columns, dict):
            raise ValueError("run-table record has no 'columns' mapping")
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise ValueError(
                f"ragged run-table columns (lengths {sorted(lengths)})"
            )
        nrows = lengths.pop() if lengths else 0
        table.columns = {k: list(v) for k, v in columns.items()}
        for k in KEY_COLUMNS:  # tolerate older/partial tables
            table.columns.setdefault(k, [None] * nrows)
        if "created_unix_s" in record:
            table.created_unix_s = float(record["created_unix_s"])  # type: ignore
        return table

    def save(self, path: Union[str, "os.PathLike"]) -> None:  # noqa: F821
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: Union[str, "os.PathLike"]) -> "RunTable":  # noqa: F821
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))
