"""Unit tests for the differentiable functional building blocks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients
from repro.autograd import functional as F
from repro.core.masks import causal_mask
from repro.nn.layers import layer_norm


def _tensor(rng, shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        x = Tensor(rng.normal(size=(4, 7)))
        out = F.softmax(x, axis=-1).data
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(4), atol=1e-12)

    def test_invariant_to_constant_shift(self, rng):
        x = rng.normal(size=(3, 5))
        a = F.softmax(Tensor(x)).data
        b = F.softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_stable_for_large_inputs(self):
        out = F.softmax(Tensor([[1e8, 0.0]])).data
        assert np.isfinite(out).all()

    def test_gradient(self, rng):
        x = _tensor(rng, (3, 4))
        check_gradients(lambda ts: (F.softmax(ts[0], axis=-1) ** 2).sum(), [x])

    def test_axis_zero(self, rng):
        x = Tensor(rng.normal(size=(4, 3)))
        out = F.softmax(x, axis=0).data
        np.testing.assert_allclose(out.sum(axis=0), np.ones(3), atol=1e-12)


class TestActivations:
    def test_relu_values(self):
        np.testing.assert_allclose(F.relu(Tensor([-2.0, 3.0])).data, [0.0, 3.0])

    def test_sigmoid_matches_definition(self, rng):
        x = rng.normal(size=5)
        np.testing.assert_allclose(F.sigmoid(Tensor(x)).data, 1 / (1 + np.exp(-x)), atol=1e-12)

    def test_log_sigmoid_stable_for_large_negative(self):
        value = F.log_sigmoid(Tensor([-500.0])).data
        assert np.isfinite(value).all()
        assert value[0] == pytest.approx(-500.0, rel=1e-6)

    def test_log_sigmoid_matches_log_of_sigmoid(self, rng):
        x = rng.normal(size=6)
        expected = np.log(1 / (1 + np.exp(-x)))
        np.testing.assert_allclose(F.log_sigmoid(Tensor(x)).data, expected, atol=1e-10)

    def test_softplus_gradient(self, rng):
        x = _tensor(rng, (5,))
        check_gradients(lambda ts: F.softplus(ts[0]).sum(), [x])

    def test_tanh_values(self, rng):
        x = rng.normal(size=4)
        np.testing.assert_allclose(F.tanh(Tensor(x)).data, np.tanh(x))


class TestLayerNorm:
    def test_output_is_normalised(self, rng):
        x = Tensor(rng.normal(size=(6, 8)) * 5 + 3)
        scale = Tensor(np.ones(8))
        bias = Tensor(np.zeros(8))
        out = layer_norm(x, scale, bias).data
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros(6), atol=1e-8)
        np.testing.assert_allclose(out.std(axis=-1), np.ones(6), atol=1e-3)

    def test_scale_and_bias_applied(self, rng):
        x = Tensor(rng.normal(size=(2, 4)))
        scale = Tensor(np.full(4, 2.0))
        bias = Tensor(np.full(4, 1.0))
        out = layer_norm(x, scale, bias).data
        np.testing.assert_allclose(out.mean(axis=-1), np.ones(2), atol=1e-8)

    def test_gradient(self, rng):
        x = _tensor(rng, (3, 5))
        scale = Tensor(rng.normal(size=5), requires_grad=True)
        bias = Tensor(rng.normal(size=5), requires_grad=True)
        check_gradients(lambda ts: (layer_norm(ts[0], ts[1], ts[2]) ** 2).sum(), [x, scale, bias])

    def test_constant_row_does_not_divide_by_zero(self):
        x = Tensor(np.full((1, 4), 3.0))
        out = layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4))).data
        assert np.isfinite(out).all()


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        x = Tensor(rng.normal(size=(4, 4)))
        out = F.dropout(x, 0.5, training=False, rng=rng)
        np.testing.assert_allclose(out.data, x.data)

    def test_zero_ratio_is_identity(self, rng):
        x = Tensor(rng.normal(size=(4, 4)))
        out = F.dropout(x, 0.0, training=True, rng=rng)
        np.testing.assert_allclose(out.data, x.data)

    def test_training_mode_zeroes_and_rescales(self, rng):
        x = Tensor(np.ones((1000,)))
        out = F.dropout(x, 0.4, training=True, rng=np.random.default_rng(0)).data
        survivors = out[out != 0.0]
        np.testing.assert_allclose(survivors, 1.0 / 0.6, atol=1e-12)
        assert 0.5 < survivors.size / 1000 < 0.7

    def test_invalid_ratio_raises(self, rng):
        with pytest.raises(ValueError):
            F.dropout(Tensor([1.0]), 1.0, training=True, rng=rng)

    def test_expected_value_preserved(self):
        x = Tensor(np.ones(20000))
        out = F.dropout(x, 0.3, training=True, rng=np.random.default_rng(1)).data
        assert out.mean() == pytest.approx(1.0, abs=0.05)


class TestAttention:
    def test_output_shape(self, rng):
        q = Tensor(rng.normal(size=(2, 5, 4)))
        out = F.scaled_dot_product_attention(q, q, q)
        assert out.shape == (2, 5, 4)

    def test_uniform_queries_give_mean_of_values(self, rng):
        # With zero queries/keys all scores are equal → output is the mean value.
        values = Tensor(rng.normal(size=(1, 4, 3)))
        zeros = Tensor(np.zeros((1, 4, 3)))
        out = F.scaled_dot_product_attention(zeros, zeros, values).data
        np.testing.assert_allclose(out[0, 0], values.data[0].mean(axis=0), atol=1e-12)

    def test_causal_mask_blocks_future(self, rng):
        n, d = 5, 3
        q = Tensor(rng.normal(size=(1, n, d)))
        values = Tensor(rng.normal(size=(1, n, d)))
        mask = causal_mask(n)[None, :, :]
        out = F.scaled_dot_product_attention(q, q, values, mask=mask).data
        # First position can only attend to itself → equals its own value row.
        np.testing.assert_allclose(out[0, 0], values.data[0, 0], atol=1e-9)

    def test_gradient_with_mask(self, rng):
        q = _tensor(rng, (1, 3, 2))
        k = _tensor(rng, (1, 3, 2))
        v = _tensor(rng, (1, 3, 2))
        mask = causal_mask(3)[None, :, :]
        check_gradients(
            lambda ts: (F.scaled_dot_product_attention(ts[0], ts[1], ts[2], mask=mask) ** 2).sum(),
            [q, k, v],
        )


class TestLosses:
    def test_bce_matches_manual(self, rng):
        logits = rng.normal(size=6)
        targets = (rng.random(6) > 0.5).astype(float)
        probabilities = 1 / (1 + np.exp(-logits))
        expected = -np.mean(targets * np.log(probabilities) + (1 - targets) * np.log(1 - probabilities))
        loss = F.binary_cross_entropy_with_logits(Tensor(logits), targets)
        assert loss.item() == pytest.approx(expected, rel=1e-9)

    def test_bce_stable_for_extreme_logits(self):
        loss = F.binary_cross_entropy_with_logits(Tensor([1000.0, -1000.0]), np.array([1.0, 0.0]))
        assert loss.item() == pytest.approx(0.0, abs=1e-9)

    def test_bce_gradient(self, rng):
        logits = _tensor(rng, (5,))
        targets = (rng.random(5) > 0.5).astype(float)
        check_gradients(lambda ts: F.binary_cross_entropy_with_logits(ts[0], targets), [logits])

    def test_bpr_loss_decreases_with_margin(self):
        small = F.bpr_loss(Tensor([0.1]), Tensor([0.0])).item()
        large = F.bpr_loss(Tensor([5.0]), Tensor([0.0])).item()
        assert large < small

    def test_bpr_loss_is_log2_at_zero_margin(self):
        loss = F.bpr_loss(Tensor([1.0, 2.0]), Tensor([1.0, 2.0])).item()
        assert loss == pytest.approx(np.log(2.0), rel=1e-9)

    def test_bpr_gradient(self, rng):
        pos = _tensor(rng, (4,))
        neg = _tensor(rng, (4,))
        check_gradients(lambda ts: F.bpr_loss(ts[0], ts[1]), [pos, neg])

    def test_mse_matches_manual(self, rng):
        predictions = rng.normal(size=5)
        targets = rng.normal(size=5)
        expected = np.mean((predictions - targets) ** 2)
        loss = F.mse_loss(Tensor(predictions), targets)
        assert loss.item() == pytest.approx(expected, rel=1e-12)

    def test_mse_gradient(self, rng):
        predictions = _tensor(rng, (5,))
        targets = rng.normal(size=5)
        check_gradients(lambda ts: F.mse_loss(ts[0], targets), [predictions])


class TestEmbeddingAndLinear:
    def test_embedding_lookup_values(self, rng):
        table = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        indices = np.array([[1, 4], [0, 0]])
        out = F.embedding_lookup(table, indices)
        np.testing.assert_allclose(out.data, table.data[indices])

    def test_linear_with_bias(self, rng):
        x = _tensor(rng, (3, 4))
        w = _tensor(rng, (4, 2))
        b = _tensor(rng, (2,))
        check_gradients(lambda ts: (F.linear(ts[0], ts[1], ts[2]) ** 2).sum(), [x, w, b])

    def test_linear_without_bias(self, rng):
        x = Tensor(rng.normal(size=(3, 4)))
        w = Tensor(rng.normal(size=(4, 2)))
        np.testing.assert_allclose(F.linear(x, w).data, x.data @ w.data)
