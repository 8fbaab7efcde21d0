"""Statistically sound benchmarking helpers (paper §III-A, [52]).

The paper follows Hoefler & Belli's rules: repeat each microbenchmark at
least 200 times and for at least 4 seconds, stop once the 95% confidence
interval of the median is within 5% of the median, and report the
maximum across ranks per iteration.  This module provides:

* :func:`median_ci` — nonparametric CI of the median via binomial order
  statistics (no normality assumption, as [52] requires);
* :func:`ci_converged` — the paper's stopping criterion;
* :class:`RepetitionController` — drives repeat-until-converged loops;
* :func:`summarize` — quartile/percentile summaries for the figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = [
    "median_ci",
    "ci_converged",
    "RepetitionController",
    "summarize",
    "percentile",
    "percentiles",
    "column_percentiles",
    "quartile_whiskers",
]


def median_ci(samples: Sequence[float], confidence: float = 0.95) -> Tuple[float, float]:
    """Nonparametric confidence interval of the median.

    Uses the binomial order-statistic construction: the CI is
    [x_(l), x_(u)] where l is the largest 1-based rank with
    P(Binom(n, 1/2) < l) <= alpha/2 and u = n + 1 - l, so the coverage
    P(x_(l) <= median <= x_(u)) is >= *confidence*.

    The order statistics are 1-based; ``ppf`` returns the 1-based rank
    l directly, so the 0-based array index is ``l - 1`` (the symmetric
    upper rank n + 1 - l lands at 0-based index ``n - l``).
    """
    from scipy import stats as sps  # deferred: scipy is a dev-only dep

    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 0:
        raise ValueError("median_ci needs at least one sample")
    if n < 3:
        return float(x[0]), float(x[-1])
    # ppf(a/2) is the smallest k with P(X <= k) >= a/2, hence
    # P(X <= k-1) < a/2: taking l = k as the 1-based lower rank keeps
    # P(median < x_(l)) = P(X <= l-1) below a/2 on each tail.
    l = int(sps.binom.ppf((1 - confidence) / 2, n, 0.5))
    lo = max(0, l - 1)
    hi = min(n - 1, n - l)
    return float(x[lo]), float(x[hi])


def ci_converged(
    samples: Sequence[float],
    tolerance: float = 0.05,
    confidence: float = 0.95,
    min_reps: int = 10,
) -> bool:
    """The paper's stopping rule: CI of the median within *tolerance* of
    the median (and at least *min_reps* repetitions)."""
    if len(samples) < min_reps:
        return False
    med = float(np.median(samples))
    if med == 0:
        return True
    lo, hi = median_ci(samples, confidence)
    return (hi - lo) / abs(med) <= 2 * tolerance


@dataclass
class RepetitionController:
    """Repeat-until-stable driver.

    The paper runs >=200 reps / >=4 s wall; a pure-Python simulation
    scales those knobs down but keeps the *criterion* (CI of the median
    within 5%).
    """

    min_reps: int = 10
    max_reps: int = 200
    tolerance: float = 0.05
    confidence: float = 0.95

    def __post_init__(self):
        if self.min_reps < 3 or self.max_reps < self.min_reps:
            raise ValueError("need max_reps >= min_reps >= 3")

    def needs_more(self, samples: Sequence[float]) -> bool:
        if len(samples) >= self.max_reps:
            return False
        if len(samples) < self.min_reps:
            return True
        return not ci_converged(
            samples, self.tolerance, self.confidence, self.min_reps
        )

    def run(self, sample_fn) -> List[float]:
        """Call ``sample_fn()`` until the stopping rule is met."""
        samples: List[float] = []
        while self.needs_more(samples):
            samples.append(float(sample_fn()))
        return samples


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    a = np.asarray(samples, dtype=float)
    q1, med, q3 = np.percentile(a, [25, 50, 75])
    return {
        "n": int(a.size),
        "mean": float(a.mean()),
        "median": float(med),
        "q1": float(q1),
        "q3": float(q3),
        "min": float(a.min()),
        "max": float(a.max()),
        "p95": float(np.percentile(a, 95)),
        "p99": float(np.percentile(a, 99)),
        "std": float(a.std(ddof=1)) if a.size > 1 else 0.0,
    }


def percentile(samples: Sequence[float], q: float) -> float:
    """Single percentile (numpy linear interpolation), as a float."""
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def percentiles(
    samples: Sequence[float], qs: Sequence[float] = (50, 95, 99)
) -> Dict[float, float]:
    """Several percentiles at once; NaN-filled when *samples* is empty."""
    a = np.asarray(samples, dtype=float)
    if a.size == 0:
        return {q: float("nan") for q in qs}
    vals = np.percentile(a, list(qs))
    return {q: float(v) for q, v in zip(qs, vals)}


def column_percentiles(
    rows: Sequence[Sequence[float]], qs: Sequence[float] = (50, 95, 99)
) -> List[Dict[float, float]]:
    """:func:`percentiles` of every column of a non-empty n x m table,
    in one numpy call; entry *j* equals ``percentiles(column j, qs)``."""
    vals = np.percentile(np.asarray(rows, dtype=float), list(qs), axis=0)
    return [
        {q: float(vals[k, j]) for k, q in enumerate(qs)}
        for j in range(vals.shape[1])
    ]


def quartile_whiskers(samples: Sequence[float]) -> Dict[str, float]:
    """The paper's Fig. 4 box convention: S is the smallest sample above
    Q1 - 1.5 IQR, L the largest below Q3 + 1.5 IQR."""
    a = np.asarray(samples, dtype=float)
    q1, med, q3 = np.percentile(a, [25, 50, 75])
    iqr = q3 - q1
    above = a[a >= q1 - 1.5 * iqr]
    below = a[a <= q3 + 1.5 * iqr]
    return {
        "S": float(above.min()),
        "q1": float(q1),
        "median": float(med),
        "q3": float(q3),
        "L": float(below.max()),
    }
