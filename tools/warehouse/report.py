"""Render run-tables and comparisons as text reports.

``report`` gives per-benchmark × per-metric summary tables with 95 %
CIs (the repetition-and-CI discipline the one-shot figures lacked);
``compare`` judges two tables arm against arm with Welch's t-test.
Span/histogram percentile columns (``h:*.p50`` ...) ride along as
ordinary metrics, so span-level p50/p99 across repetitions fall out of
the same machinery.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.utils.report import Table
from tools.warehouse import stats
from tools.warehouse.table import RunTable


def _select_metrics(
    table: RunTable, metrics: Optional[Sequence[str]], spans: bool
) -> List[str]:
    names = list(metrics) if metrics else table.metric_names()
    if not spans and not metrics:
        names = [
            n for n in names if not n.startswith(("span:", "h:"))
        ]
    return names


def render_table(
    table: RunTable,
    benchmark: Optional[str] = None,
    metrics: Optional[Sequence[str]] = None,
    confidence: float = 0.95,
    spans: bool = False,
) -> str:
    """Per-metric summary (mean, median, CI, spread) per benchmark.

    By default the span/histogram detail columns are folded away; pass
    ``spans=True`` (CLI ``--spans``) for the span-level percentiles.
    """
    benches = [benchmark] if benchmark else table.benchmarks()
    names = _select_metrics(table, metrics, spans)
    out = []
    for bench in benches:
        nrows = sum(
            1 for b in table.columns.get("benchmark", []) if b == bench
        )
        sub_rows = Table(
            [
                "metric",
                "n",
                "mean",
                "median",
                f"ci{int(confidence * 100)}",
                "min",
                "max",
                "noise_%",
            ],
            title=f"{bench} — {nrows} row(s)",
        )
        shown = 0
        for metric in names:
            values = table.values(metric, benchmark=bench)
            if not values:
                continue
            s = stats.summarize(values, confidence)
            sub_rows.add_row(
                [
                    metric,
                    s.n,
                    f"{s.mean:.6g}",
                    f"{s.median:.6g}",
                    f"±{s.ci_halfwidth:.3g}",
                    f"{s.minimum:.6g}",
                    f"{s.maximum:.6g}",
                    f"{s.rel_noise * 100:.2f}",
                ]
            )
            shown += 1
        if shown:
            out.append(sub_rows.render())
    if not out:
        return "(empty run-table — nothing to report)"
    return "\n\n".join(out)


def render_provenance(table: RunTable) -> str:
    """One-line provenance summary: SHAs, machines, scale profiles."""

    def distinct(col: str) -> List[str]:
        seen = {}
        for v in table.columns.get(col, []):
            if v is not None:
                seen.setdefault(str(v), None)
        return list(seen)

    shas = [s[:10] for s in distinct("git_sha")]
    return (
        f"rows={len(table)} benchmarks={distinct('benchmark')} "
        f"sha={shas} machine={distinct('machine')} "
        f"profile={distinct('scale_profile')}"
    )


def render_compare(
    a: RunTable,
    b: RunTable,
    metrics: Optional[Sequence[str]] = None,
    confidence: float = 0.95,
    alpha: float = 0.05,
    label_a: str = "A",
    label_b: str = "B",
) -> str:
    """A vs B per shared benchmark × metric, with Welch's t-test.

    Unlike :func:`tools.warehouse.gate.gate` this is descriptive (no
    direction judgement, no exit code): it shows the change and whether
    it is statistically distinguishable from noise.
    """
    shared_b = [x for x in a.benchmarks() if x in set(b.benchmarks())]
    names = metrics or sorted(
        set(a.metric_names()) & set(b.metric_names())
    )
    table = Table(
        [
            "benchmark",
            "metric",
            f"{label_a} mean (n)",
            f"{label_b} mean (n)",
            "change_%",
            "p",
            "verdict",
        ],
        title=f"compare {label_a} vs {label_b}",
    )
    rows = 0
    for bench in shared_b:
        for metric in names:
            va = a.values(metric, benchmark=bench)
            vb = b.values(metric, benchmark=bench)
            if not va or not vb:
                continue
            sa = stats.summarize(va, confidence)
            sb = stats.summarize(vb, confidence)
            change = (
                float("nan")
                if sa.mean == 0
                else (sb.mean - sa.mean) / abs(sa.mean) * 100
            )
            if len(va) >= 2 and len(vb) >= 2:
                p = stats.welch_t(va, vb).p_value
                verdict = (
                    "different" if p < alpha else "indistinguishable"
                )
                p_txt = f"{p:.3f}"
            else:
                p_txt = "-"
                band = stats.noise_band(va, vb, confidence=confidence)
                verdict = (
                    "beyond band"
                    if abs(change) / 100 > band
                    else "within band"
                )
            table.add_row(
                [
                    bench,
                    metric,
                    f"{sa.mean:.6g} ({sa.n})",
                    f"{sb.mean:.6g} ({sb.n})",
                    f"{change:+.1f}",
                    p_txt,
                    verdict,
                ]
            )
            rows += 1
    if not rows:
        return "(no shared benchmark/metric between the two tables)"
    return table.render()
