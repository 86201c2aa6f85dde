"""Tests for Linear, Embedding, LayerNorm, Dropout, ReLU, Sequential and the
residual feed-forward block."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients
from repro.nn import Dropout, Embedding, LayerNorm, Linear, ReLU, Sequential
from repro.nn.feedforward import ResidualFeedForward


class TestLinear:
    def test_output_shape(self, rng):
        layer = Linear(4, 3, rng=rng)
        out = layer(Tensor(rng.normal(size=(5, 4))))
        assert out.shape == (5, 3)

    def test_batched_input(self, rng):
        layer = Linear(4, 3, rng=rng)
        out = layer(Tensor(rng.normal(size=(2, 5, 4))))
        assert out.shape == (2, 5, 3)

    def test_no_bias(self, rng):
        layer = Linear(4, 3, bias=False, rng=rng)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_invalid_dims_raise(self, rng):
        with pytest.raises(ValueError):
            Linear(0, 3, rng=rng)

    def test_gradients_reach_weight_and_bias(self, rng):
        layer = Linear(3, 2, rng=rng)
        out = layer(Tensor(rng.normal(size=(4, 3)))).sum()
        out.backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None

    def test_gradient_check_through_layer(self, rng):
        layer = Linear(3, 2, rng=rng)
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        check_gradients(lambda ts: (layer(ts[0]) ** 2).sum(), [x])


class TestEmbedding:
    def test_lookup_shape(self, rng):
        table = Embedding(10, 4, rng=rng)
        out = table(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 4)

    def test_padding_row_is_zero(self, rng):
        table = Embedding(10, 4, padding_idx=0, rng=rng)
        np.testing.assert_allclose(table(np.array([0])).data, np.zeros((1, 4)))

    def test_out_of_range_raises(self, rng):
        table = Embedding(5, 4, rng=rng)
        with pytest.raises(IndexError):
            table(np.array([5]))
        with pytest.raises(IndexError):
            table(np.array([-1]))

    def test_invalid_padding_idx(self, rng):
        with pytest.raises(ValueError):
            Embedding(5, 4, padding_idx=9, rng=rng)

    def test_gradient_scatters_to_rows(self, rng):
        table = Embedding(6, 3, rng=rng)
        out = table(np.array([2, 2, 5]))
        out.sum().backward()
        grad = table.weight.grad
        np.testing.assert_allclose(grad[2], 2 * np.ones(3))
        np.testing.assert_allclose(grad[5], np.ones(3))
        np.testing.assert_allclose(grad[0], np.zeros(3))

    def test_reset_padding(self, rng):
        table = Embedding(6, 3, padding_idx=0, rng=rng)
        table.weight.data[0] = 5.0
        table.reset_padding()
        np.testing.assert_allclose(table.weight.data[0], np.zeros(3))


class TestLayerNormModule:
    def test_normalises_last_axis(self, rng):
        layer = LayerNorm(6)
        out = layer(Tensor(rng.normal(size=(4, 6)) * 3 + 7)).data
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros(4), atol=1e-8)

    def test_has_learnable_scale_and_bias(self):
        layer = LayerNorm(6)
        assert len(layer.parameters()) == 2

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            LayerNorm(0)


class TestDropoutModule:
    def test_respects_training_flag(self, rng):
        layer = Dropout(0.9, rng=np.random.default_rng(0))
        x = Tensor(np.ones((50,)))
        layer.eval()
        np.testing.assert_allclose(layer(x).data, x.data)
        layer.train()
        assert (layer(x).data == 0).sum() > 10

    def test_invalid_ratio(self, rng):
        with pytest.raises(ValueError):
            Dropout(1.5, rng=rng)


class TestSequential:
    def test_applies_layers_in_order(self, rng):
        seq = Sequential(Linear(3, 4, rng=rng), ReLU(), Linear(4, 2, rng=rng))
        out = seq(Tensor(rng.normal(size=(5, 3))))
        assert out.shape == (5, 2)

    def test_len_and_iter(self, rng):
        seq = Sequential(ReLU(), ReLU())
        assert len(seq) == 2
        assert all(isinstance(layer, ReLU) for layer in seq)

    def test_append(self, rng):
        seq = Sequential(ReLU())
        seq.append(ReLU())
        assert len(seq) == 2


class TestResidualFeedForward:
    def test_output_shape_preserved(self, rng):
        block = ResidualFeedForward(8, num_layers=2, rng=rng)
        out = block(Tensor(rng.normal(size=(3, 8))))
        assert out.shape == (3, 8)

    def test_depth_controls_parameter_count(self, rng):
        shallow = ResidualFeedForward(8, num_layers=1, rng=rng)
        deep = ResidualFeedForward(8, num_layers=3, rng=rng)
        assert deep.num_parameters() == 3 * shallow.num_parameters()

    def test_requires_at_least_one_layer(self, rng):
        with pytest.raises(ValueError):
            ResidualFeedForward(8, num_layers=0, rng=rng)

    def test_residual_identity_at_zero_weights(self, rng):
        block = ResidualFeedForward(4, num_layers=1, rng=rng)
        # Zero the linear layer: the residual branch contributes nothing.
        block.linears[0].weight.data[...] = 0.0
        block.linears[0].bias.data[...] = 0.0
        x = Tensor(rng.normal(size=(2, 4)))
        np.testing.assert_allclose(block(x).data, x.data)

    def test_no_residual_flag_removes_skip(self, rng):
        block = ResidualFeedForward(4, num_layers=1, use_residual=False, rng=rng)
        block.linears[0].weight.data[...] = 0.0
        block.linears[0].bias.data[...] = 0.0
        x = Tensor(rng.normal(size=(2, 4)))
        np.testing.assert_allclose(block(x).data, np.zeros((2, 4)))

    def test_gradients_flow_through_block(self, rng):
        block = ResidualFeedForward(4, num_layers=2, rng=rng)
        x = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        block(x).sum().backward()
        assert x.grad is not None
        assert all(p.grad is not None for p in block.parameters())


# --------------------------------------------------------------------------- #
# Every randomly initialised layer draws from the caller's Generator
# --------------------------------------------------------------------------- #
def _seeded_layers():
    """(name, factory taking ``rng=``) for every layer with random state."""
    from repro.baselines.deepcross import _ResidualUnit
    from repro.core.views import CrossView, DynamicView, StaticView
    from repro.nn.attention import SelfAttention

    return [
        ("SelfAttention", lambda **kw: SelfAttention(4, **kw)),
        ("Embedding", lambda **kw: Embedding(6, 4, **kw)),
        ("Linear", lambda **kw: Linear(4, 3, **kw)),
        ("ResidualFeedForward", lambda **kw: ResidualFeedForward(4, **kw)),
        ("Dropout", lambda **kw: Dropout(0.5, **kw)),
        ("StaticView", lambda **kw: StaticView(4, **kw)),
        ("DynamicView", lambda **kw: DynamicView(4, **kw)),
        ("CrossView", lambda **kw: CrossView(4, **kw)),
        ("_ResidualUnit", lambda **kw: _ResidualUnit(4, 8, **kw)),
    ]


SEEDED_LAYERS = [pytest.param(factory, id=name) for name, factory in _seeded_layers()]


@pytest.mark.parametrize("factory", SEEDED_LAYERS)
def test_layer_requires_an_rng(factory):
    """No unseeded fallback: a layer built without a Generator is an error."""
    with pytest.raises(TypeError, match="rng"):
        factory()


@pytest.mark.parametrize("factory", SEEDED_LAYERS)
def test_same_seed_builds_identical_weights(factory):
    first = factory(rng=np.random.default_rng(11))
    second = factory(rng=np.random.default_rng(11))
    for left, right in zip(first.parameters(), second.parameters()):
        np.testing.assert_array_equal(left.data, right.data)
