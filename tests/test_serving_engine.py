"""Parity tests: the graph-free serving engine must reproduce the autograd
forward pass exactly (ISSUE acceptance: agreement within 1e-10)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SeqFMConfig
from repro.core.model import SeqFM
from repro.core.tasks import SeqFMClassifier, SeqFMRegressor
from repro.data.features import FeatureBatch
from repro.serving import InferenceEngine

ATOL = 1e-10


def random_batch(config: SeqFMConfig, batch_size: int, seed: int = 7) -> FeatureBatch:
    """A synthetic batch with mixed-length (left-padded) histories."""
    rng = np.random.default_rng(seed)
    n = config.max_seq_len
    static = rng.integers(0, config.static_vocab_size, (batch_size, 2), dtype=np.int64)
    lengths = rng.integers(0, n + 1, batch_size)
    dynamic = np.zeros((batch_size, n), dtype=np.int64)
    mask = np.zeros((batch_size, n), dtype=np.float64)
    for row, length in enumerate(lengths):
        if length:
            dynamic[row, n - length:] = rng.integers(
                1, config.dynamic_vocab_size, length, dtype=np.int64
            )
            mask[row, n - length:] = 1.0
    return FeatureBatch(
        static_indices=static,
        dynamic_indices=dynamic,
        dynamic_mask=mask,
        labels=rng.random(batch_size),
        user_ids=np.arange(batch_size, dtype=np.int64),
        object_ids=np.arange(batch_size, dtype=np.int64),
    )


def trained_like(config: SeqFMConfig, seed: int = 11) -> SeqFM:
    """A model whose weights were perturbed away from initialisation."""
    model = SeqFM(config)
    rng = np.random.default_rng(seed)
    for parameter in model.parameters():
        parameter.data += rng.normal(0.0, 0.2, parameter.data.shape)
    model.dynamic_embedding.reset_padding()
    return model


BASE = dict(static_vocab_size=40, dynamic_vocab_size=30, max_seq_len=8,
            embed_dim=8, dropout=0.4, seed=3)

ABLATIONS = [
    {},
    {"ffn_layers": 3},
    {"pooling": "last"},
    {"share_ffn": False},
    {"use_layer_norm": False},
    {"use_residual": False},
    {"use_static_view": False},
    {"use_dynamic_view": False},
    {"use_cross_view": False},
    {"use_static_view": False, "use_cross_view": False},
    {"use_layer_norm": False, "use_residual": False, "ffn_layers": 2},
]


class TestEngineParity:
    @pytest.mark.parametrize("batch_size", [1, 12])
    @pytest.mark.parametrize("overrides", ABLATIONS)
    def test_score_matches_model_score(self, overrides, batch_size):
        """B=1 is the shape of one serve line; B=12 mixes history lengths."""
        config = SeqFMConfig(**{**BASE, **overrides})
        model = trained_like(config)
        batch = random_batch(config, batch_size=batch_size)
        expected = model.score(batch)
        actual = InferenceEngine(model).score(batch)
        np.testing.assert_allclose(actual, expected, rtol=0.0, atol=ATOL)

    def test_parity_on_conftest_model(self, seqfm_model, tiny_batch):
        expected = seqfm_model.score(tiny_batch)
        actual = InferenceEngine(seqfm_model).score(tiny_batch)
        np.testing.assert_allclose(actual, expected, rtol=0.0, atol=ATOL)

    def test_parity_survives_training_mode(self):
        """Engine output is eval-mode regardless of the model's current mode."""
        config = SeqFMConfig(**BASE)
        model = trained_like(config)
        batch = random_batch(config, batch_size=6)
        model.train()  # dropout active for autograd forward, not for score()
        np.testing.assert_allclose(
            InferenceEngine(model).score(batch), model.score(batch), rtol=0.0, atol=ATOL
        )
        assert model.training  # engine must not flip the model's mode

    def test_classify_matches_task_head(self):
        config = SeqFMConfig(**BASE)
        classifier = SeqFMClassifier(config)
        model = classifier.scorer
        rng = np.random.default_rng(0)
        for parameter in model.parameters():
            parameter.data += rng.normal(0.0, 0.3, parameter.data.shape)
        batch = random_batch(config, batch_size=9)
        np.testing.assert_allclose(
            InferenceEngine(model).classify(batch),
            classifier.predict_probability(batch),
            rtol=0.0,
            atol=ATOL,
        )

    def test_regress_matches_task_head(self):
        config = SeqFMConfig(**BASE)
        regressor = SeqFMRegressor(config)
        batch = random_batch(config, batch_size=9)
        np.testing.assert_allclose(
            InferenceEngine(regressor.scorer).regress(batch),
            regressor.predict(batch),
            rtol=0.0,
            atol=ATOL,
        )

    def test_engine_sees_weight_updates(self):
        """Weights are read by reference: updating the model updates the engine."""
        config = SeqFMConfig(**BASE)
        model = trained_like(config)
        engine = InferenceEngine(model)
        batch = random_batch(config, batch_size=4)
        before = engine.score(batch)
        model.projection.data[...] += 1.0
        after = engine.score(batch)
        assert not np.allclose(before, after)
        np.testing.assert_allclose(after, model.score(batch), rtol=0.0, atol=ATOL)

    def test_engine_does_not_mutate_model(self):
        config = SeqFMConfig(**BASE)
        model = trained_like(config)
        state_before = model.state_dict()
        InferenceEngine(model).score(random_batch(config, batch_size=5))
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(value, state_before[name])

    @pytest.mark.parametrize("batch_size", [1, 4])
    def test_all_padding_rows_are_finite(self, batch_size):
        """Fully-padded histories must not produce NaNs (uniform-softmax rows)."""
        config = SeqFMConfig(**BASE)
        model = trained_like(config)
        batch = random_batch(config, batch_size=batch_size)
        batch.dynamic_indices[0, :] = 0
        batch.dynamic_mask[0, :] = 0.0
        scores = InferenceEngine(model).score(batch)
        assert np.isfinite(scores).all()
        np.testing.assert_allclose(scores, model.score(batch), rtol=0.0, atol=ATOL)
