"""Classification metrics: AUC and RMSE (paper §V-C).

AUC is computed exactly (Mann-Whitney statistic over all positive/negative
pairs via rank sums); RMSE is taken between the predicted click probability
and the binary label, matching how the FM literature the paper cites reports
it for CTR models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np


@dataclass
class ClassificationMetrics:
    auc: float
    rmse: float
    num_cases: int = 0

    def as_dict(self) -> Dict[str, float]:
        return {"AUC": self.auc, "RMSE": self.rmse}


def auc_score(labels: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve via the rank-sum (Mann-Whitney U) formulation.

    Tied scores receive average ranks, the exact convention of the usual
    trapezoidal ROC computation.
    """
    labels = np.asarray(labels, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape:
        raise ValueError("labels and scores must have the same shape")
    positives = labels > 0.5
    num_positive = int(positives.sum())
    num_negative = int(labels.size - num_positive)
    if num_positive == 0 or num_negative == 0:
        raise ValueError("AUC requires at least one positive and one negative example")
    positive_rank_sum = _average_ranks(scores.ravel())[positives.ravel()].sum()
    u_statistic = positive_rank_sum - num_positive * (num_positive + 1) / 2.0
    return float(u_statistic / (num_positive * num_negative))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-D array; tied values share the mean of their ranks.

    Any NaN makes every rank NaN, so a diverged model reports a NaN AUC
    instead of a plausible-looking number.
    """
    if np.isnan(values).any():
        return np.full(values.size, np.nan)
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    # A tie group whose last member has rank r holds ranks r-count+1 .. r.
    return (np.cumsum(counts) - (counts - 1) / 2.0)[group]


def rmse_score(labels: np.ndarray, probabilities: np.ndarray) -> float:
    """Root mean squared error between predicted probabilities and labels."""
    labels = np.asarray(labels, dtype=np.float64)
    probabilities = np.asarray(probabilities, dtype=np.float64)
    if labels.shape != probabilities.shape:
        raise ValueError("labels and probabilities must have the same shape")
    return float(np.sqrt(np.mean((probabilities - labels) ** 2)))


def evaluate_classification(labels: np.ndarray, probabilities: np.ndarray) -> ClassificationMetrics:
    """AUC + RMSE over a set of labelled predictions."""
    return ClassificationMetrics(
        auc=auc_score(labels, probabilities),
        rmse=rmse_score(labels, probabilities),
        num_cases=int(np.asarray(labels).size),
    )
