"""Tests for the significance-testing tools of :mod:`repro.eval.significance`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval.significance import (
    bootstrap_confidence_interval,
    paired_bootstrap_test,
    per_case_hit_scores,
    sign_test,
)


class TestBootstrapConfidenceInterval:
    def test_interval_contains_estimate(self):
        scores = np.random.default_rng(0).random(200)
        interval = bootstrap_confidence_interval(scores, seed=1)
        assert interval.lower <= interval.estimate <= interval.upper
        assert interval.contains(interval.estimate)

    def test_interval_narrows_with_more_data(self):
        rng = np.random.default_rng(0)
        small = bootstrap_confidence_interval(rng.random(30), seed=1)
        large = bootstrap_confidence_interval(rng.random(3000), seed=1)
        assert (large.upper - large.lower) < (small.upper - small.lower)

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_confidence_interval([])
        with pytest.raises(ValueError):
            bootstrap_confidence_interval([1.0], confidence=1.5)


class TestPairedTests:
    def test_clear_difference_is_significant(self):
        rng = np.random.default_rng(0)
        base = rng.random(150)
        better = np.clip(base + 0.2, 0, 1)
        comparison = paired_bootstrap_test(better, base, seed=1)
        assert comparison.mean_difference > 0
        assert comparison.significant

    def test_no_difference_not_significant(self):
        rng = np.random.default_rng(0)
        a = rng.random(150)
        b = a + rng.normal(0, 1e-3, size=150)
        comparison = paired_bootstrap_test(a, b, seed=1)
        assert not comparison.significant or abs(comparison.mean_difference) < 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            paired_bootstrap_test([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            paired_bootstrap_test([], [])

    def test_sign_test_detects_consistent_winner(self):
        a = np.array([0.6] * 40)
        b = np.array([0.4] * 40)
        comparison = sign_test(a, b)
        assert comparison.significant
        assert comparison.mean_difference == pytest.approx(0.2)

    def test_sign_test_all_ties(self):
        a = np.ones(10)
        comparison = sign_test(a, a.copy())
        assert comparison.p_value == 1.0
        assert not comparison.significant

    @pytest.mark.parametrize("wins, decisive, expected", [
        # (wins, n) -> scipy.stats.binomtest(wins, n, p=0.5).pvalue, scipy 1.17.1
        (0, 1, 1.0),
        (1, 1, 1.0),
        (0, 5, 0.0625),
        (1, 5, 0.375),
        (3, 10, 0.34375),
        (5, 10, 1.0),
        (8, 10, 0.109375),
        (7, 20, 0.26317596435546875),
        (15, 20, 0.04138946533203125),
        (12, 37, 0.04703102743951604),
        (40, 100, 0.05688793364098089),
        (61, 100, 0.035200200217704855),
        (230, 500, 0.08103234960921356),
        (1040, 2000, 0.07728689056266859),  # C(2000, 1000) overflows a float
    ])
    def test_sign_test_matches_scipy_binomtest(self, wins, decisive, expected):
        ties = 3
        a = np.r_[np.ones(wins), np.zeros(decisive - wins), np.full(ties, 0.5)]
        b = np.r_[np.zeros(wins), np.ones(decisive - wins), np.full(ties, 0.5)]
        comparison = sign_test(a, b)
        assert comparison.p_value == pytest.approx(expected, rel=0, abs=1e-12)
        assert comparison.num_cases == decisive + ties

    def test_per_case_hit_scores(self):
        score_lists = [np.array([3.0, 1.0, 2.0]), np.array([0.0, 9.0, 1.0])]
        hits = per_case_hit_scores(score_lists, [0, 0], k=1)
        np.testing.assert_array_equal(hits, [1.0, 0.0])
