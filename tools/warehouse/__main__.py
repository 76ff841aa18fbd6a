"""CLI: the results warehouse.

Usage::

    python -m tools.warehouse ingest TABLE.json RUNS.jsonl [MORE...]
    python -m tools.warehouse report TABLE.json [--benchmark B] [--spans]
    python -m tools.warehouse compare BASE.json CAND.json [--metric M]
    python -m tools.warehouse gate --baseline B.json --candidate C.json

``ingest`` maps ``repro.obs/v1`` / ``repro.run/v1`` JSONL (and existing
``repro.table/v1`` tables) into one columnar run-table; ``report``
prints per-metric tables with 95 % CIs; ``compare`` judges two tables
with Welch's t-test; ``gate`` exits nonzero when a tracked benchmark
regressed beyond the measured noise band (the CI perf gate).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from tools.warehouse.gate import DEFAULT_TRACKED, GateConfig, gate
from tools.warehouse.ingest import ingest_jsonl
from tools.warehouse.report import (
    render_compare,
    render_provenance,
    render_table,
)
from tools.warehouse.table import RunTable


def _cmd_ingest(args) -> int:
    table, report = ingest_jsonl(args.inputs)
    print(report.render())
    if args.strict and report.errors:
        print("ingest --strict: refusing to write with bad lines")
        return 1
    table.save(args.table)
    print(f"wrote {args.table} ({len(table)} rows)")
    return 0


def _cmd_report(args) -> int:
    table = RunTable.load(args.table)
    print(render_provenance(table))
    print()
    print(
        render_table(
            table,
            benchmark=args.benchmark,
            metrics=args.metric or None,
            spans=args.spans,
        )
    )
    return 0


def _cmd_compare(args) -> int:
    a = RunTable.load(args.a)
    b = RunTable.load(args.b)
    print(
        render_compare(
            a,
            b,
            metrics=args.metric or None,
            alpha=args.alpha,
            label_a=args.a,
            label_b=args.b,
        )
    )
    return 0


def _cmd_gate(args) -> int:
    baseline = RunTable.load(args.baseline)
    candidate = RunTable.load(args.candidate)
    config = GateConfig(
        metrics=tuple(args.metric) if args.metric else None,
        benchmarks=tuple(args.benchmark) if args.benchmark else None,
        min_drop=args.min_drop,
        alpha=args.alpha,
        inject_regression=args.inject_regression,
    )
    report = gate(baseline, candidate, config)
    print(report.render())
    if not report.verdicts:
        print(
            "gate: no shared tracked metric between baseline and "
            f"candidate (tracked by default: {', '.join(DEFAULT_TRACKED)})"
        )
        return 2
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.warehouse",
        description="Results warehouse: run-tables, CIs, perf gate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="JSONL records -> run-table JSON")
    p.add_argument("table", help="output run-table path (repro.table/v1)")
    p.add_argument("inputs", nargs="+", help="JSONL files/dirs/globs")
    p.add_argument(
        "--strict",
        action="store_true",
        help="fail (exit 1) if any line was malformed",
    )
    p.set_defaults(fn=_cmd_ingest)

    p = sub.add_parser("report", help="per-metric tables with CIs")
    p.add_argument("table")
    p.add_argument("--benchmark", default=None)
    p.add_argument(
        "--metric", action="append", default=None, metavar="NAME"
    )
    p.add_argument(
        "--spans",
        action="store_true",
        help="include span/histogram percentile columns (h:*, span:*)",
    )
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("compare", help="A vs B with Welch's t-test")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument(
        "--metric", action="append", default=None, metavar="NAME"
    )
    p.add_argument("--alpha", type=float, default=0.05)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser(
        "gate", help="fail (exit 1) on regression beyond noise"
    )
    p.add_argument("--baseline", required=True)
    p.add_argument("--candidate", required=True)
    p.add_argument(
        "--metric",
        action="append",
        default=None,
        metavar="NAME",
        help=f"tracked metric(s); default: {', '.join(DEFAULT_TRACKED)}",
    )
    p.add_argument(
        "--benchmark", action="append", default=None, metavar="NAME"
    )
    p.add_argument(
        "--min-drop",
        type=float,
        default=0.05,
        help="noise-band floor as a fraction (default 0.05)",
    )
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument(
        "--inject-regression",
        type=float,
        default=0.0,
        metavar="FRAC",
        help="test hook: worsen the candidate by FRAC before judging "
        "(a working gate must then fail)",
    )
    p.set_defaults(fn=_cmd_gate)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # report | head is a normal way to skim a big table
        return 0


if __name__ == "__main__":
    sys.exit(main())
