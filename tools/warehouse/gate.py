"""The CI perf-regression gate.

``gate(baseline, candidate)`` compares two run-tables benchmark by
benchmark, metric by metric, and fails (nonzero CLI exit) when a
tracked metric *worsens* beyond the measured noise band:

* direction-aware — ``seeds_per_s`` dropping is a regression,
  ``epoch_seconds`` dropping is an improvement; metrics with no
  inferable direction are skipped unless explicitly requested;
* noise-aware — the band is the larger of either side's relative
  95 % CI half-width, floored at ``min_drop`` (default 5 %), so a rerun
  of the same SHA passes while a real 20 % throughput drop fails;
* significance-aware — with >= 2 repetitions on both sides the drop
  must also survive Welch's t-test at ``alpha``.

``inject_regression`` is a test hook: it scales the candidate's values
worse by the given fraction before judging, proving end to end that the
gate *would* catch a regression of that size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from tools.warehouse import stats
from tools.warehouse.table import RunTable

#: Metrics the gate tracks when none are requested explicitly.
DEFAULT_TRACKED = (
    "bench:candidates_per_s",
    "bench:data:replan",
    "bench:data:static",
    "epoch.seeds_per_s",
    "elapsed_s",
)

_HIGHER_BETTER_HINTS = (
    "per_s",
    "throughput",
    "candidates",
    "frac",
    "replan",
    "static",
    "healthy",
    "ok",
)
_LOWER_BETTER_HINTS = (
    "seconds",
    "elapsed",
    "latency",
    "time_to",
)


def metric_direction(name: str) -> int:
    """+1 if higher is better, -1 if lower is better, 0 if unknown.

    Checked in order: an explicit throughput-ish hint wins over the
    generic seconds suffix (``candidates_per_s`` ends with ``_s`` too).
    """
    low = name.lower()
    for hint in _HIGHER_BETTER_HINTS:
        if hint in low:
            return +1
    for hint in _LOWER_BETTER_HINTS:
        if hint in low:
            return -1
    # bare seconds suffix (span:*.total_s, elapsed-style *_s totals)
    if low.endswith("_s"):
        return -1
    return 0


@dataclass
class GateVerdict:
    """One benchmark × metric judgement."""

    benchmark: str
    metric: str
    direction: int
    baseline: stats.Summary
    candidate: stats.Summary
    rel_change: float  # signed; negative = worse (direction-adjusted)
    band: float
    p_value: Optional[float]  # None when either side has < 2 reps
    regressed: bool

    @property
    def status(self) -> str:
        if self.regressed:
            return "FAIL"
        if self.rel_change < -self.band:
            return "noise"  # beyond band but not significant
        return "ok"


@dataclass
class GateReport:
    """All verdicts of one gate run."""

    verdicts: List[GateVerdict] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(v.regressed for v in self.verdicts)

    @property
    def failures(self) -> List[GateVerdict]:
        return [v for v in self.verdicts if v.regressed]

    def render(self) -> str:
        from repro.utils.report import Table

        table = Table(
            [
                "benchmark",
                "metric",
                "dir",
                "base mean±ci (n)",
                "cand mean±ci (n)",
                "change_%",
                "band_%",
                "p",
                "status",
            ],
            title="perf-regression gate",
        )
        for v in self.verdicts:
            table.add_row(
                [
                    v.benchmark,
                    v.metric,
                    "+" if v.direction > 0 else "-",
                    f"{v.baseline.mean:.4g}±{v.baseline.ci_halfwidth:.2g}"
                    f" ({v.baseline.n})",
                    f"{v.candidate.mean:.4g}±{v.candidate.ci_halfwidth:.2g}"
                    f" ({v.candidate.n})",
                    f"{v.rel_change * 100:+.1f}",
                    f"{v.band * 100:.1f}",
                    "-" if v.p_value is None else f"{v.p_value:.3f}",
                    v.status,
                ]
            )
        lines = [table.render()]
        if self.skipped:
            lines.append(
                f"  skipped (no direction / missing on one side): "
                f"{', '.join(self.skipped[:8])}"
                + (" ..." if len(self.skipped) > 8 else "")
            )
        lines.append(
            "  verdict: "
            + ("OK — no regression beyond noise" if self.ok
               else f"REGRESSED — {len(self.failures)} metric(s) failed")
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class GateConfig:
    """Gate thresholds (see module docstring)."""

    metrics: Optional[Tuple[str, ...]] = None  # None = DEFAULT_TRACKED
    benchmarks: Optional[Tuple[str, ...]] = None  # None = all shared
    min_drop: float = 0.05
    alpha: float = 0.05
    confidence: float = 0.95
    inject_regression: float = 0.0  # test hook


def _tracked_metrics(
    baseline: RunTable, candidate: RunTable, config: GateConfig
) -> List[str]:
    if config.metrics:
        return list(config.metrics)
    shared = set(baseline.metric_names()) & set(candidate.metric_names())
    return [m for m in DEFAULT_TRACKED if m in shared]


def gate(
    baseline: RunTable,
    candidate: RunTable,
    config: GateConfig = GateConfig(),
) -> GateReport:
    """Judge ``candidate`` against ``baseline`` (see module docstring)."""
    report = GateReport()
    benches = (
        list(config.benchmarks)
        if config.benchmarks
        else [
            b
            for b in candidate.benchmarks()
            if b in set(baseline.benchmarks())
        ]
    )
    metrics = _tracked_metrics(baseline, candidate, config)
    for bench in benches:
        for metric in metrics:
            base_vals = baseline.values(metric, benchmark=bench)
            cand_vals = candidate.values(metric, benchmark=bench)
            if not base_vals or not cand_vals:
                continue
            direction = metric_direction(metric)
            if direction == 0:
                if config.metrics:  # explicitly requested: assume higher
                    direction = +1
                else:
                    report.skipped.append(metric)
                    continue
            if config.inject_regression:
                # worsen the candidate by the injected fraction
                factor = (
                    1.0 - config.inject_regression
                    if direction > 0
                    else 1.0 + config.inject_regression
                )
                cand_vals = [v * factor for v in cand_vals]
            base_sum = stats.summarize(base_vals, config.confidence)
            cand_sum = stats.summarize(cand_vals, config.confidence)
            if base_sum.mean == 0:
                report.skipped.append(f"{metric} (zero baseline)")
                continue
            # signed relative change, negative = worse
            rel = (cand_sum.mean - base_sum.mean) / abs(base_sum.mean)
            rel *= direction
            band = stats.noise_band(
                base_vals,
                cand_vals,
                floor=config.min_drop,
                confidence=config.confidence,
            )
            p_value: Optional[float] = None
            beyond = rel < -band
            regressed = beyond
            if len(base_vals) >= 2 and len(cand_vals) >= 2:
                p_value = stats.welch_t(base_vals, cand_vals).p_value
                regressed = beyond and p_value < config.alpha
            report.verdicts.append(
                GateVerdict(
                    benchmark=bench,
                    metric=metric,
                    direction=direction,
                    baseline=base_sum,
                    candidate=cand_sum,
                    rel_change=rel,
                    band=band,
                    p_value=p_value,
                    regressed=regressed,
                )
            )
    return report
