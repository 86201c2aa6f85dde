"""Tests for the task heads and the trainer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SeqFMConfig
from repro.core.model import SeqFM
from repro.core.tasks import (
    ClassificationTask,
    RankingTask,
    RegressionTask,
    SeqFMClassifier,
    SeqFMRanker,
    SeqFMRegressor,
    make_task_model,
)
from repro.core.trainer import Trainer, TrainerConfig
from repro.data.features import FeatureBatch
from repro.data.split import leave_one_out_split


@pytest.fixture
def ranking_batch(encoder, tiny_log, split):
    examples = encoder.encode_training_instances(split.train)
    return FeatureBatch.from_examples(examples[:6])


class TestTaskHeads:
    def test_make_task_model_dispatch(self, seqfm_config):
        scorer = SeqFM(seqfm_config)
        assert isinstance(make_task_model(scorer, "ranking"), RankingTask)
        assert isinstance(make_task_model(scorer, "classification"), ClassificationTask)
        assert isinstance(make_task_model(scorer, "regression"), RegressionTask)

    def test_make_task_model_unknown(self, seqfm_config):
        with pytest.raises(ValueError):
            make_task_model(SeqFM(seqfm_config), "clustering")

    def test_seqfm_aliases_build_seqfm(self, seqfm_config):
        assert isinstance(SeqFMRanker(seqfm_config).scorer, SeqFM)
        assert isinstance(SeqFMClassifier(seqfm_config).scorer, SeqFM)
        assert isinstance(SeqFMRegressor(seqfm_config).scorer, SeqFM)

    def test_ranking_loss_requires_negatives(self, seqfm_config, ranking_batch):
        task = SeqFMRanker(seqfm_config)
        with pytest.raises(ValueError):
            task.loss(ranking_batch)

    def test_ranking_loss_positive_scalar(self, seqfm_config, encoder, ranking_batch, sampler):
        task = SeqFMRanker(seqfm_config)
        negatives = sampler.sample_batch(ranking_batch.user_ids, ranking_batch.object_ids)
        negative_batch = ranking_batch.with_candidate(encoder, negatives)
        loss = task.loss(ranking_batch, negative_batch)
        assert loss.size == 1
        assert loss.item() > 0

    def test_classification_loss_with_and_without_negatives(self, seqfm_config, encoder,
                                                            ranking_batch, sampler):
        task = SeqFMClassifier(seqfm_config)
        loss_positive_only = task.loss(ranking_batch)
        negatives = sampler.sample_batch(ranking_batch.user_ids, ranking_batch.object_ids)
        negative_batch = ranking_batch.with_candidate(encoder, negatives)
        loss_with_negatives = task.loss(ranking_batch, negative_batch)
        assert loss_positive_only.item() > 0
        assert loss_with_negatives.item() > 0

    def test_classification_predict_probability_in_unit_interval(self, seqfm_config, ranking_batch):
        task = SeqFMClassifier(seqfm_config)
        probabilities = task.predict_probability(ranking_batch)
        assert np.all(probabilities > 0) and np.all(probabilities < 1)

    def test_regression_loss_matches_mse(self, seqfm_config, ranking_batch):
        task = SeqFMRegressor(seqfm_config)
        loss = task.loss(ranking_batch)
        predictions = task.predict(ranking_batch)
        expected = np.mean((predictions - ranking_batch.labels) ** 2)
        assert loss.item() == pytest.approx(expected, rel=1e-6)

    def test_regression_rejects_negative_batch(self, seqfm_config, encoder, ranking_batch, sampler):
        task = SeqFMRegressor(seqfm_config)
        negatives = sampler.sample_batch(ranking_batch.user_ids, ranking_batch.object_ids)
        with pytest.raises(ValueError):
            task.loss(ranking_batch, ranking_batch.with_candidate(encoder, negatives))


class TestTrainer:
    def _context(self, encoder, split, task):
        use_ratings = task == "regression"
        examples = encoder.encode_training_instances(split.train, use_ratings=use_ratings)
        return examples

    def test_ranking_training_reduces_loss(self, seqfm_config, encoder, split, sampler):
        task = SeqFMRanker(seqfm_config)
        examples = self._context(encoder, split, "ranking")
        trainer = Trainer(task, encoder, sampler,
                          TrainerConfig(epochs=5, batch_size=8, learning_rate=0.02, seed=0,
                                        convergence_tolerance=0.0))
        result = trainer.fit(examples)
        assert result.epoch_losses[-1] < result.epoch_losses[0]
        assert result.epochs_run == 5
        assert result.train_seconds > 0

    def test_regression_training_reduces_loss(self, rating_log):
        from repro.data.features import FeatureEncoder
        split = leave_one_out_split(rating_log)
        encoder = FeatureEncoder(rating_log, max_seq_len=5)
        config = SeqFMConfig(
            static_vocab_size=encoder.static_vocab_size,
            dynamic_vocab_size=encoder.dynamic_vocab_size,
            max_seq_len=5, embed_dim=8, dropout=0.0, seed=0,
        )
        task = SeqFMRegressor(config)
        examples = encoder.encode_training_instances(split.train, use_ratings=True)
        trainer = Trainer(task, encoder, config=TrainerConfig(epochs=4, batch_size=16,
                                                              learning_rate=0.02,
                                                              convergence_tolerance=0.0))
        result = trainer.fit(examples)
        assert result.epoch_losses[-1] < result.epoch_losses[0]

    def test_regression_bias_warm_start(self, rating_log):
        from repro.data.features import FeatureEncoder
        split = leave_one_out_split(rating_log)
        encoder = FeatureEncoder(rating_log, max_seq_len=5)
        config = SeqFMConfig(
            static_vocab_size=encoder.static_vocab_size,
            dynamic_vocab_size=encoder.dynamic_vocab_size,
            max_seq_len=5, embed_dim=8, dropout=0.0, seed=0,
        )
        task = SeqFMRegressor(config)
        examples = encoder.encode_training_instances(split.train, use_ratings=True)
        trainer = Trainer(task, encoder, config=TrainerConfig(epochs=1, batch_size=16))
        trainer.fit(examples)
        labels = np.array([example.label for example in examples])
        # After warm start + training, the bias should sit near the label mean.
        assert abs(task.scorer.global_bias.data[0] - labels.mean()) < 1.0

    def test_sampler_required_for_ranking(self, seqfm_config, encoder):
        with pytest.raises(ValueError):
            Trainer(SeqFMRanker(seqfm_config), encoder, sampler=None)

    def test_validation_callback_invoked(self, seqfm_config, encoder, split, sampler):
        task = SeqFMRanker(seqfm_config)
        examples = self._context(encoder, split, "ranking")
        calls = []

        def callback(model):
            calls.append(1)
            return {"checked": float(len(calls))}

        trainer = Trainer(task, encoder, sampler, TrainerConfig(epochs=2, batch_size=8,
                                                                convergence_tolerance=0.0))
        result = trainer.fit(examples, validation_callback=callback)
        assert len(result.validation_history) == 2
        assert result.validation_history[0]["checked"] == 1.0

    def test_early_convergence_stops(self, seqfm_config, encoder, split, sampler):
        task = SeqFMRanker(seqfm_config)
        examples = self._context(encoder, split, "ranking")
        trainer = Trainer(task, encoder, sampler,
                          TrainerConfig(epochs=20, batch_size=8, learning_rate=1e-9,
                                        convergence_tolerance=0.5))
        result = trainer.fit(examples)
        assert result.epochs_run < 20

    def test_model_left_in_eval_mode(self, seqfm_config, encoder, split, sampler):
        task = SeqFMRanker(seqfm_config)
        examples = self._context(encoder, split, "ranking")
        Trainer(task, encoder, sampler, TrainerConfig(epochs=1, batch_size=8)).fit(examples)
        assert not task.training


class TestFusedNegatives:
    """The fused (1+k)-candidate fast path must equal the looped path."""

    NUM_DRAWS = 5

    def _negatives(self, sampler, batch):
        return np.stack([
            sampler.sample_batch(batch.user_ids, batch.object_ids)
            for _ in range(self.NUM_DRAWS)
        ])

    @pytest.mark.parametrize("task_cls", [SeqFMRanker, SeqFMClassifier])
    def test_fused_loss_equals_looped_average(self, seqfm_config, encoder, ranking_batch,
                                              sampler, task_cls):
        task = task_cls(seqfm_config)  # dropout=0.0 in the fixture: deterministic
        negatives = self._negatives(sampler, ranking_batch)
        looped = sum(
            task.loss(ranking_batch,
                      ranking_batch.with_candidate(encoder, negatives[draw])).item()
            for draw in range(self.NUM_DRAWS)
        ) / self.NUM_DRAWS
        fused = task.fused_loss(
            ranking_batch.with_candidates(encoder, negatives),
            len(ranking_batch), self.NUM_DRAWS,
        ).item()
        assert fused == pytest.approx(looped, abs=1e-8)

    @pytest.mark.parametrize("task_cls,task", [(SeqFMRanker, "ranking"),
                                               (SeqFMClassifier, "classification")])
    def test_fused_trainer_epoch_losses_match_looped(self, seqfm_config, encoder, split,
                                                     sampler, task_cls, task, tiny_log):
        from repro.data.sampling import NegativeSampler

        examples = encoder.encode_training_instances(split.train)
        losses = {}
        for fused in (True, False):
            model = task_cls(seqfm_config)
            fresh_sampler = NegativeSampler(tiny_log, seed=0)
            trainer = Trainer(model, encoder, fresh_sampler,
                              TrainerConfig(epochs=3, batch_size=8, learning_rate=0.02,
                                            negatives_per_positive=self.NUM_DRAWS,
                                            convergence_tolerance=0.0, seed=0,
                                            fused_negatives=fused))
            losses[fused] = trainer.fit(examples).epoch_losses
        np.testing.assert_allclose(losses[True], losses[False], atol=1e-8)

    def test_fused_gradients_match_looped(self, seqfm_config, encoder, ranking_batch, sampler):
        """One fused backward accumulates the same gradients as k looped ones."""
        negatives = self._negatives(sampler, ranking_batch)
        gradients = {}
        for fused in (True, False):
            task = SeqFMRanker(seqfm_config)
            for parameter in task.parameters():
                parameter.zero_grad()
            if fused:
                loss = task.fused_loss(ranking_batch.with_candidates(encoder, negatives),
                                       len(ranking_batch), self.NUM_DRAWS)
            else:
                losses = [task.loss(ranking_batch,
                                    ranking_batch.with_candidate(encoder, negatives[d]))
                          for d in range(self.NUM_DRAWS)]
                loss = sum(losses[1:], losses[0]) * (1.0 / self.NUM_DRAWS)
            loss.backward()
            gradients[fused] = [parameter.grad.copy() for parameter in task.parameters()]
        for fused_grad, looped_grad in zip(gradients[True], gradients[False]):
            np.testing.assert_allclose(fused_grad, looped_grad, atol=1e-10)

    def test_fused_loss_rejects_bad_shapes(self, seqfm_config, ranking_batch, encoder, sampler):
        task = SeqFMRanker(seqfm_config)
        negatives = self._negatives(sampler, ranking_batch)
        fused = ranking_batch.with_candidates(encoder, negatives)
        with pytest.raises(ValueError):
            task.fused_loss(fused, len(ranking_batch), self.NUM_DRAWS + 1)
        with pytest.raises(ValueError):
            task.fused_loss(fused, len(ranking_batch), 0)

    def test_regression_has_no_fused_loss(self, seqfm_config, ranking_batch, encoder, sampler):
        task = SeqFMRegressor(seqfm_config)
        negatives = self._negatives(sampler, ranking_batch)
        fused = ranking_batch.with_candidates(encoder, negatives)
        with pytest.raises(NotImplementedError):
            task.fused_loss(fused, len(ranking_batch), self.NUM_DRAWS)


class TestTrainerStopping:
    def test_fit_without_examples_raises(self, seqfm_config, encoder, sampler):
        trainer = Trainer(SeqFMRanker(seqfm_config), encoder, sampler)
        with pytest.raises(ValueError, match="no training examples"):
            trainer.fit([])

    def test_convergence_records_reason(self, seqfm_config, encoder, split, sampler):
        examples = encoder.encode_training_instances(split.train)
        trainer = Trainer(SeqFMRanker(seqfm_config), encoder, sampler,
                          TrainerConfig(epochs=20, batch_size=8, learning_rate=1e-9,
                                        convergence_tolerance=0.5))
        result = trainer.fit(examples)
        assert result.stop_reason == "converged"
        assert result.epochs_run < 20

    def test_max_epochs_records_reason(self, seqfm_config, encoder, split, sampler):
        examples = encoder.encode_training_instances(split.train)
        trainer = Trainer(SeqFMRanker(seqfm_config), encoder, sampler,
                          TrainerConfig(epochs=2, batch_size=8,
                                        convergence_tolerance=0.0))
        result = trainer.fit(examples)
        assert result.stop_reason == "max_epochs"
        assert result.epochs_run == 2

    def test_divergence_stops_training(self, seqfm_config, encoder, split,
                                       sampler, monkeypatch):
        """``divergence_patience`` consecutive epochs that each worsen the
        loss beyond the divergence tolerance stop the loop; one recovery in
        between restarts the count."""
        examples = encoder.encode_training_instances(split.train)
        trainer = Trainer(SeqFMRanker(seqfm_config), encoder, sampler,
                          TrainerConfig(epochs=50, batch_size=8,
                                        convergence_tolerance=1e-4,
                                        divergence_tolerance=0.05,
                                        divergence_patience=3))
        # worse, worse, better (streak resets), then three worsening epochs
        losses = iter([1.0, 1.2, 1.5, 1.4, 1.6, 2.0, 2.6, 9.9])
        monkeypatch.setattr(trainer, "_run_epoch", lambda iterator: next(losses))
        result = trainer.fit(examples)
        assert result.stop_reason == "diverged"
        assert result.epochs_run == 7

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_loss_stops_training(self, seqfm_config, encoder, split,
                                            sampler, monkeypatch, bad):
        """A NaN (or infinite) epoch loss ends the loop at that epoch: NaN
        compares False against every tolerance, so without the check the loop
        ran to the epoch budget and reported ``max_epochs``."""
        examples = encoder.encode_training_instances(split.train)
        trainer = Trainer(SeqFMRanker(seqfm_config), encoder, sampler,
                          TrainerConfig(epochs=10, batch_size=8,
                                        convergence_tolerance=1e-4))
        losses = iter([1.0, 0.8, bad, bad, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5])
        monkeypatch.setattr(trainer, "_run_epoch", lambda iterator: next(losses))
        result = trainer.fit(examples)
        assert result.stop_reason == "non_finite"
        assert result.epochs_run == 3
        assert result.epoch_losses[:2] == [1.0, 0.8]

    def test_plateau_noise_is_not_divergence(self, seqfm_config, encoder, split,
                                             sampler, monkeypatch):
        """Small consecutive upticks (above the convergence tolerance but far
        below the divergence tolerance) must not abort training."""
        examples = encoder.encode_training_instances(split.train)
        trainer = Trainer(SeqFMRanker(seqfm_config), encoder, sampler,
                          TrainerConfig(epochs=8, batch_size=8,
                                        convergence_tolerance=1e-4,
                                        divergence_tolerance=0.05,
                                        divergence_patience=3))
        losses = iter([0.4000, 0.4002, 0.4004, 0.4006, 0.4008,
                       0.4010, 0.4012, 0.4014])
        monkeypatch.setattr(trainer, "_run_epoch", lambda iterator: next(losses))
        result = trainer.fit(examples)
        assert result.stop_reason == "max_epochs"
        assert result.epochs_run == 8

    def test_zero_loss_does_not_disable_convergence_check(self, seqfm_config, encoder,
                                                          split, sampler, monkeypatch):
        """Regression: a zero epoch loss used to silently skip the check forever."""
        examples = encoder.encode_training_instances(split.train)
        trainer = Trainer(SeqFMRanker(seqfm_config), encoder, sampler,
                          TrainerConfig(epochs=10, batch_size=8,
                                        convergence_tolerance=1e-4))
        losses = iter([1.0, 0.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5])
        monkeypatch.setattr(trainer, "_run_epoch", lambda iterator: next(losses))
        result = trainer.fit(examples)
        # previous_loss == 0 skips one comparison but 0.5 -> 0.5 must converge.
        assert result.stop_reason == "converged"
        assert result.epochs_run == 4

