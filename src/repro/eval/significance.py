"""Statistical significance testing for model comparisons.

The paper reports point estimates; when comparing models on the scaled-down
synthetic datasets the differences can be within noise, so this module
provides the standard tools for deciding whether a gap is meaningful:

* :func:`bootstrap_confidence_interval` — percentile bootstrap CI of a metric
  computed from per-case scores;
* :func:`paired_bootstrap_test` — paired bootstrap comparison of two models
  evaluated on the *same* test cases (the recommended test for per-user
  metrics such as HR@K / NDCG@K / absolute error);
* :func:`sign_test` — a distribution-free fallback based on win counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class BootstrapInterval:
    """A point estimate with a percentile-bootstrap confidence interval."""

    estimate: float
    lower: float
    upper: float
    confidence: float

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


@dataclass(frozen=True)
class PairedComparison:
    """Result of a paired bootstrap comparison between two models.

    Attributes
    ----------
    mean_difference:
        Mean of (model A − model B) over the test cases.
    p_value:
        Two-sided bootstrap p-value for the null hypothesis of no difference.
    significant:
        Whether ``p_value`` is below the requested alpha.
    """

    mean_difference: float
    p_value: float
    alpha: float
    num_cases: int

    @property
    def significant(self) -> bool:
        return self.p_value < self.alpha


def bootstrap_confidence_interval(
    per_case_scores: Sequence[float],
    statistic: Callable[[np.ndarray], float] = np.mean,
    confidence: float = 0.95,
    num_resamples: int = 2000,
    seed: int = 0,
) -> BootstrapInterval:
    """Percentile bootstrap CI for an aggregate of per-case scores.

    Parameters
    ----------
    per_case_scores:
        One score per test case (e.g. the per-user hit indicator for HR@10).
    statistic:
        Aggregation applied to each resample (defaults to the mean).
    confidence:
        Interval coverage, e.g. 0.95.
    num_resamples:
        Number of bootstrap resamples.
    seed:
        Seed of the resampling generator.
    """
    scores = np.asarray(per_case_scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("cannot bootstrap an empty score list")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    rng = np.random.default_rng(seed)
    estimates = np.empty(num_resamples)
    for index in range(num_resamples):
        resample = scores[rng.integers(0, scores.size, size=scores.size)]
        estimates[index] = statistic(resample)
    tail = (1.0 - confidence) / 2.0
    return BootstrapInterval(
        estimate=float(statistic(scores)),
        lower=float(np.quantile(estimates, tail)),
        upper=float(np.quantile(estimates, 1.0 - tail)),
        confidence=confidence,
    )


def paired_bootstrap_test(
    scores_a: Sequence[float],
    scores_b: Sequence[float],
    alpha: float = 0.05,
    num_resamples: int = 2000,
    seed: int = 0,
) -> PairedComparison:
    """Paired bootstrap test on per-case scores of two models.

    The null hypothesis is that the expected per-case difference is zero; the
    p-value is the two-sided bootstrap probability of the mean difference
    crossing zero.
    """
    a = np.asarray(scores_a, dtype=np.float64)
    b = np.asarray(scores_b, dtype=np.float64)
    if a.shape != b.shape or a.size == 0:
        raise ValueError("paired test requires two equal-length, non-empty score lists")
    differences = a - b
    observed = float(differences.mean())
    rng = np.random.default_rng(seed)
    count_opposite = 0
    for _ in range(num_resamples):
        resample = differences[rng.integers(0, differences.size, size=differences.size)]
        mean = resample.mean()
        if (observed >= 0 and mean <= 0) or (observed <= 0 and mean >= 0):
            count_opposite += 1
    p_value = min(1.0, 2.0 * count_opposite / num_resamples)
    return PairedComparison(mean_difference=observed, p_value=p_value,
                            alpha=alpha, num_cases=int(a.size))


def sign_test(
    scores_a: Sequence[float],
    scores_b: Sequence[float],
    alpha: float = 0.05,
) -> PairedComparison:
    """Two-sided sign test: counts cases where model A beats model B.

    Ties are dropped, as is standard.  The p-value is the exact two-sided
    binomial one (:func:`_two_sided_binomial_p`).
    """
    a = np.asarray(scores_a, dtype=np.float64)
    b = np.asarray(scores_b, dtype=np.float64)
    if a.shape != b.shape or a.size == 0:
        raise ValueError("sign test requires two equal-length, non-empty score lists")
    wins_a = int(np.sum(a > b))
    wins_b = int(np.sum(b > a))
    decisive = wins_a + wins_b
    if decisive == 0:
        return PairedComparison(mean_difference=0.0, p_value=1.0, alpha=alpha, num_cases=int(a.size))
    return PairedComparison(
        mean_difference=float((a - b).mean()),
        p_value=_two_sided_binomial_p(wins_a, decisive),
        alpha=alpha,
        num_cases=int(a.size),
    )


def _two_sided_binomial_p(wins: int, trials: int) -> float:
    """P(an outcome no likelier than ``wins``) under ``Binomial(trials, 1/2)``.

    The standard exact-test rule, with the customary 1e-7 relative tolerance
    for calling two outcomes equally likely; the tests pin a table of
    reference values.  The comparison stays in exact integers
    (``C(n, i) ≤ ⌊C(n, wins)·(10⁷ + 1) / 10⁷⌋``), so nothing overflows a float
    before the final division.  O(trials) big-integer steps.
    """
    limit = math.comb(trials, wins) * (10**7 + 1) // 10**7
    total, coefficient = 0, 1
    for i in range(trials + 1):
        if coefficient <= limit:
            total += coefficient
        coefficient = coefficient * (trials - i) // (i + 1)
    return total / 2**trials


def per_case_hit_scores(score_lists: Sequence[np.ndarray],
                        ground_truth_positions: Sequence[int],
                        k: int) -> np.ndarray:
    """Per-case HR@K indicators, the input format the paired tests expect."""
    from repro.eval.ranking import hit_ratio_at_k

    return np.array([
        hit_ratio_at_k(scores, position, k)
        for scores, position in zip(score_lists, ground_truth_positions)
    ])
