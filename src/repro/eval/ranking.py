"""Ranking metrics: HR@K and NDCG@K (Eq. 27 of the paper).

For each test case the ground-truth object is mixed with J sampled negatives;
HR@K measures whether the ground truth appears in the top-K of the ranked
candidate list, and NDCG@K additionally rewards ranking it close to the top
with the usual ``1 / log2(rank + 1)`` discount.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence

import numpy as np


@dataclass
class RankingMetrics:
    """HR@K / NDCG@K for a set of cut-offs, plus the number of test cases."""

    hr: Dict[int, float] = field(default_factory=dict)
    ndcg: Dict[int, float] = field(default_factory=dict)
    num_cases: int = 0

    def as_dict(self) -> Dict[str, float]:
        flat: Dict[str, float] = {}
        for k, value in sorted(self.hr.items()):
            flat[f"HR@{k}"] = value
        for k, value in sorted(self.ndcg.items()):
            flat[f"NDCG@{k}"] = value
        return flat


def _ground_truth_rank(scores: np.ndarray, ground_truth_position: int) -> int:
    """1-based rank of the ground-truth candidate.

    Ties are broken pessimistically: every other candidate with an equal score
    ranks ahead of the ground truth, wherever it sits in the list, so a
    constant scorer earns no credit.  A non-finite ground-truth score (a
    diverged model's NaN) ranks last.
    """
    scores = np.asarray(scores, dtype=np.float64)
    target_score = scores[ground_truth_position]
    if not np.isfinite(target_score):
        return int(scores.size)
    return int(np.sum(scores >= target_score))


def hit_ratio_at_k(scores: np.ndarray, ground_truth_position: int, k: int) -> float:
    """1.0 when the ground truth ranks within the top-K candidates, else 0.0."""
    if k < 1:
        raise ValueError("k must be positive")
    return 1.0 if _ground_truth_rank(scores, ground_truth_position) <= k else 0.0


def ndcg_at_k(scores: np.ndarray, ground_truth_position: int, k: int) -> float:
    """NDCG@K with a single relevant item: ``1 / log2(rank + 1)`` if rank ≤ K."""
    if k < 1:
        raise ValueError("k must be positive")
    rank = _ground_truth_rank(scores, ground_truth_position)
    if rank > k:
        return 0.0
    return float(1.0 / np.log2(rank + 1))


def evaluate_ranking(
    score_lists: Sequence[np.ndarray],
    ground_truth_positions: Sequence[int],
    cutoffs: Sequence[int] = (5, 10, 20),
) -> RankingMetrics:
    """Aggregate HR@K and NDCG@K over many test cases.

    Parameters
    ----------
    score_lists:
        One score array per test case, covering the ground truth and its J
        sampled negatives.
    ground_truth_positions:
        Index of the ground-truth candidate within each score array.
    cutoffs:
        The K values to report (paper: 5, 10, 20).
    """
    if len(score_lists) != len(ground_truth_positions):
        raise ValueError("score_lists and ground_truth_positions must align")
    metrics = RankingMetrics(num_cases=len(score_lists))
    if not score_lists:
        metrics.hr = {k: 0.0 for k in cutoffs}
        metrics.ndcg = {k: 0.0 for k in cutoffs}
        return metrics

    for k in cutoffs:
        hits = []
        gains = []
        for scores, position in zip(score_lists, ground_truth_positions):
            hits.append(hit_ratio_at_k(scores, position, k))
            gains.append(ndcg_at_k(scores, position, k))
        metrics.hr[k] = float(np.mean(hits))
        metrics.ndcg[k] = float(np.mean(gains))
    return metrics
