"""Tests for HR@K, NDCG@K, AUC, RMSE, MAE and RRSE."""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval.classification import auc_score, evaluate_classification, rmse_score
from repro.eval.ranking import evaluate_ranking, hit_ratio_at_k, ndcg_at_k
from repro.eval.regression import (
    evaluate_regression,
    mean_absolute_error,
    root_relative_squared_error,
)


class TestRankingMetrics:
    def test_hit_when_ground_truth_on_top(self):
        scores = np.array([5.0, 1.0, 2.0, 3.0])
        assert hit_ratio_at_k(scores, 0, k=1) == 1.0
        assert ndcg_at_k(scores, 0, k=1) == pytest.approx(1.0)

    def test_miss_when_ground_truth_out_of_top_k(self):
        scores = np.array([0.0, 5.0, 4.0, 3.0])
        assert hit_ratio_at_k(scores, 0, k=2) == 0.0
        assert ndcg_at_k(scores, 0, k=2) == 0.0

    def test_ndcg_discount_at_rank_two(self):
        scores = np.array([4.0, 5.0, 1.0])
        assert ndcg_at_k(scores, 0, k=5) == pytest.approx(1.0 / np.log2(3))

    def test_rank_ties_are_pessimistic(self):
        scores = np.zeros(10)
        # All-equal scores: the ground truth ranks behind every tie, wherever it sits.
        assert hit_ratio_at_k(scores, 0, k=1) == 0.0
        assert hit_ratio_at_k(scores, 5, k=5) == 0.0
        assert hit_ratio_at_k(scores, 0, k=10) == 1.0

    def test_tie_with_a_negative_ranks_behind_it(self):
        scores = np.array([2.0, 3.0, 2.0, 1.0])
        assert ndcg_at_k(scores, 0, k=10) == pytest.approx(1.0 / np.log2(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_ground_truth_ranks_last(self, bad):
        scores = np.array([bad, 0.5, 0.1])
        assert hit_ratio_at_k(scores, 0, k=2) == 0.0
        assert ndcg_at_k(scores, 0, k=3) == pytest.approx(0.5)

    def test_all_nan_scores_earn_nothing(self):
        metrics = evaluate_ranking([np.full(5, np.nan)] * 3, [0, 2, 4], cutoffs=(1, 4))
        assert metrics.hr == {1: 0.0, 4: 0.0}
        assert metrics.ndcg == {1: 0.0, 4: 0.0}

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            hit_ratio_at_k(np.array([1.0]), 0, k=0)
        with pytest.raises(ValueError):
            ndcg_at_k(np.array([1.0]), 0, k=0)

    def test_evaluate_ranking_aggregates(self):
        score_lists = [np.array([3.0, 1.0, 2.0]), np.array([0.0, 5.0, 1.0])]
        positions = [0, 0]
        metrics = evaluate_ranking(score_lists, positions, cutoffs=(1, 2))
        assert metrics.hr[1] == pytest.approx(0.5)
        assert metrics.num_cases == 2
        flat = metrics.as_dict()
        assert set(flat) == {"HR@1", "HR@2", "NDCG@1", "NDCG@2"}

    def test_evaluate_ranking_empty(self):
        metrics = evaluate_ranking([], [], cutoffs=(5,))
        assert metrics.hr[5] == 0.0

    def test_evaluate_ranking_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate_ranking([np.array([1.0])], [0, 1])

    def test_perfect_ranker_scores_one(self):
        rng = np.random.default_rng(0)
        score_lists, positions = [], []
        for _ in range(20):
            scores = rng.random(50)
            scores[7] = 2.0  # ground truth always highest
            score_lists.append(scores)
            positions.append(7)
        metrics = evaluate_ranking(score_lists, positions, cutoffs=(5, 10))
        assert metrics.hr[5] == 1.0
        assert metrics.ndcg[10] == pytest.approx(1.0)

    def test_random_ranker_hr_close_to_k_over_n(self):
        rng = np.random.default_rng(1)
        n_candidates, k, cases = 100, 10, 400
        hits = []
        for _ in range(cases):
            scores = rng.random(n_candidates)
            hits.append(hit_ratio_at_k(scores, 0, k=k))
        assert np.mean(hits) == pytest.approx(k / n_candidates, abs=0.05)


class TestClassificationMetrics:
    def test_auc_perfect_separation(self):
        labels = np.array([1, 1, 0, 0])
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        assert auc_score(labels, scores) == 1.0

    def test_auc_random_is_half(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, size=2000).astype(float)
        scores = rng.random(2000)
        assert auc_score(labels, scores) == pytest.approx(0.5, abs=0.05)

    def test_auc_inverted_scores(self):
        labels = np.array([1, 0])
        scores = np.array([0.1, 0.9])
        assert auc_score(labels, scores) == 0.0

    def test_auc_handles_ties(self):
        labels = np.array([1, 0, 1, 0])
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        assert auc_score(labels, scores) == pytest.approx(0.5)

    def test_auc_requires_both_classes(self):
        with pytest.raises(ValueError):
            auc_score(np.ones(5), np.random.random(5))

    def test_auc_shape_mismatch(self):
        with pytest.raises(ValueError):
            auc_score(np.ones(3), np.ones(4))

    def test_rmse(self):
        labels = np.array([1.0, 0.0])
        probabilities = np.array([1.0, 0.5])
        assert rmse_score(labels, probabilities) == pytest.approx(np.sqrt(0.125))

    def test_evaluate_classification_bundle(self):
        labels = np.array([1, 1, 0, 0], dtype=float)
        probabilities = np.array([0.9, 0.7, 0.3, 0.2])
        metrics = evaluate_classification(labels, probabilities)
        assert metrics.auc == 1.0
        assert metrics.num_cases == 4
        assert set(metrics.as_dict()) == {"AUC", "RMSE"}


class TestRegressionMetrics:
    def test_mae(self):
        assert mean_absolute_error(np.array([1.0, 2.0]), np.array([2.0, 0.0])) == pytest.approx(1.5)

    def test_mae_shape_mismatch(self):
        with pytest.raises(ValueError):
            mean_absolute_error(np.ones(2), np.ones(3))

    def test_rrse_of_mean_predictor_is_one(self):
        targets = np.array([1.0, 2.0, 3.0, 4.0])
        predictions = np.full(4, targets.mean())
        assert root_relative_squared_error(targets, predictions) == pytest.approx(1.0)

    def test_rrse_of_perfect_predictor_is_zero(self):
        targets = np.array([1.0, 2.0, 3.0])
        assert root_relative_squared_error(targets, targets.copy()) == 0.0

    def test_rrse_constant_targets(self):
        targets = np.ones(4)
        assert root_relative_squared_error(targets, targets.copy()) == 0.0
        assert root_relative_squared_error(targets, targets + 1) == float("inf")

    def test_evaluate_regression_bundle(self):
        targets = np.array([3.0, 4.0, 5.0])
        predictions = np.array([3.5, 4.0, 4.5])
        metrics = evaluate_regression(targets, predictions)
        assert metrics.mae == pytest.approx(1.0 / 3.0)
        assert metrics.num_cases == 3
        assert set(metrics.as_dict()) == {"MAE", "RRSE"}

    def test_paper_equation_28_equivalence(self):
        """RRSE as implemented equals sqrt(Σ(ŷ-y)² / (|S|·VAR)) from Eq. 28."""
        rng = np.random.default_rng(0)
        targets = rng.normal(size=50)
        predictions = targets + rng.normal(scale=0.3, size=50)
        variance = targets.var()
        expected = np.sqrt(np.sum((predictions - targets) ** 2) / (50 * variance))
        assert root_relative_squared_error(targets, predictions) == pytest.approx(expected, rel=1e-9)
