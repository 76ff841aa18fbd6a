"""Statistical machinery for the results warehouse.

Repetition discipline for benchmark numbers: summaries with 95 %
Student-t confidence intervals, Welch's t-test for comparing two
arms/SHAs without assuming equal variance, and a relative noise band
that the regression gate uses to tell a real throughput drop from
LP-solver / scheduling jitter — the same discipline the mubench
replication's STATISTICAL_ANALYSIS_NOTES applies to its speedup tables.

All inputs are plain sequences of floats (what
:meth:`tools.warehouse.table.RunTable.values` returns).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class Summary:
    """Descriptive statistics of one metric sample."""

    n: int
    mean: float
    median: float
    stdev: float  # sample standard deviation (ddof=1), 0 for n < 2
    minimum: float
    maximum: float
    ci_lo: float
    ci_hi: float
    confidence: float

    @property
    def ci_halfwidth(self) -> float:
        return (self.ci_hi - self.ci_lo) / 2.0

    @property
    def rel_noise(self) -> float:
        """CI half-width as a fraction of the mean (0 when mean is 0)."""
        if self.mean == 0:
            return 0.0
        return abs(self.ci_halfwidth / self.mean)

    def to_dict(self) -> Dict[str, float]:
        return {
            "n": self.n,
            "mean": self.mean,
            "median": self.median,
            "stdev": self.stdev,
            "min": self.minimum,
            "max": self.maximum,
            "ci_lo": self.ci_lo,
            "ci_hi": self.ci_hi,
            "confidence": self.confidence,
        }


def _t_critical(df: float, confidence: float) -> float:
    """Two-sided Student-t critical value (scipy when available)."""
    try:
        from scipy import stats as sp_stats

        return float(sp_stats.t.ppf(0.5 + confidence / 2.0, df))
    except ImportError:  # pragma: no cover - scipy is a hard dep elsewhere
        # normal approximation fallback
        return 1.959963984540054


def summarize(
    values: Sequence[float], confidence: float = 0.95
) -> Summary:
    """Mean/median/stdev plus a t-based confidence interval.

    With one sample the CI collapses to the point (noise unknown, not
    zero — the gate treats n=1 baselines with an explicit floor).
    """
    if not values:
        raise ValueError("summarize() needs at least one sample")
    arr = np.asarray(list(values), dtype=float)
    n = arr.size
    mean = float(arr.mean())
    if n > 1:
        stdev = float(arr.std(ddof=1))
        half = _t_critical(n - 1, confidence) * stdev / math.sqrt(n)
    else:
        stdev = 0.0
        half = 0.0
    return Summary(
        n=int(n),
        mean=mean,
        median=float(np.median(arr)),
        stdev=stdev,
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        ci_lo=mean - half,
        ci_hi=mean + half,
        confidence=confidence,
    )


@dataclass(frozen=True)
class WelchResult:
    """Welch's unequal-variance t-test between two samples."""

    t: float
    df: float
    p_value: float  # two-sided
    mean_a: float
    mean_b: float

    @property
    def significant(self) -> bool:
        """Significant at the conventional alpha = 0.05."""
        return self.p_value < 0.05


def welch_t(a: Sequence[float], b: Sequence[float]) -> WelchResult:
    """Welch's t-test (two-sided) for ``mean(a) != mean(b)``.

    Needs >= 2 samples per side; raises otherwise — callers decide how
    to handle single-shot data (the gate falls back to a pure
    threshold).
    """
    xa = np.asarray(list(a), dtype=float)
    xb = np.asarray(list(b), dtype=float)
    if xa.size < 2 or xb.size < 2:
        raise ValueError(
            f"welch_t needs >=2 samples per side (got {xa.size}, {xb.size})"
        )
    va = xa.var(ddof=1) / xa.size
    vb = xb.var(ddof=1) / xb.size
    denom = math.sqrt(va + vb)
    if denom == 0:
        # identical constants on both sides: no evidence of difference
        # unless the means differ exactly (then it is infinite evidence)
        same = float(xa.mean()) == float(xb.mean())
        return WelchResult(
            t=0.0 if same else math.inf,
            df=float(xa.size + xb.size - 2),
            p_value=1.0 if same else 0.0,
            mean_a=float(xa.mean()),
            mean_b=float(xb.mean()),
        )
    t = float((xa.mean() - xb.mean()) / denom)
    df = float(
        (va + vb) ** 2
        / (
            va**2 / (xa.size - 1)
            + vb**2 / (xb.size - 1)
        )
    )
    try:
        from scipy import stats as sp_stats

        p = float(2.0 * sp_stats.t.sf(abs(t), df))
    except ImportError:  # pragma: no cover
        # coarse normal-tail fallback
        p = float(2.0 * (1.0 - 0.5 * (1.0 + math.erf(abs(t) / math.sqrt(2)))))
    return WelchResult(
        t=t, df=df, p_value=p, mean_a=float(xa.mean()), mean_b=float(xb.mean())
    )


def noise_band(
    baseline: Sequence[float],
    candidate: Optional[Sequence[float]] = None,
    floor: float = 0.02,
    confidence: float = 0.95,
) -> float:
    """Relative noise band for a regression decision.

    The band is the larger of either side's relative CI half-width,
    floored at ``floor`` (even a deterministic simulation carries
    LP-solver tie-breaking noise; a 1-sample side carries *unknown*
    noise and gets the floor).  A drop within the band is
    indistinguishable from jitter.
    """
    band = floor
    for side in (baseline, candidate):
        if side:
            band = max(band, summarize(side, confidence).rel_noise)
    return band
