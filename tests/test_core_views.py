"""Tests for the static, dynamic and cross attention views."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core.interpret import attention_maps
from repro.core.model import SeqFM
from repro.core.views import CrossView, DynamicView, StaticView


class TestStaticView:
    def test_output_shape(self, rng):
        view = StaticView(8, rng=rng)
        out = view(Tensor(rng.normal(size=(4, 2, 8))))
        assert out.shape == (4, 8)

    def test_permutation_invariance(self, rng):
        """Mean pooling over unmasked self-attention is permutation invariant."""
        view = StaticView(6, rng=rng)
        features = rng.normal(size=(1, 4, 6))
        permutation = np.array([2, 0, 3, 1])
        a = view(Tensor(features)).data
        b = view(Tensor(features[:, permutation, :])).data
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_gradients_flow(self, rng):
        view = StaticView(6, rng=rng)
        x = Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True)
        view(x).sum().backward()
        assert x.grad is not None


class TestDynamicView:
    def test_output_shape(self, rng):
        view = DynamicView(8, rng=rng)
        mask = np.ones((4, 5))
        out = view(Tensor(rng.normal(size=(4, 5, 8))), mask)
        assert out.shape == (4, 8)

    def test_invalid_pooling(self, rng):
        with pytest.raises(ValueError):
            DynamicView(8, pooling="max", rng=rng)

    def test_padding_rows_do_not_contribute(self, rng):
        view = DynamicView(4, rng=rng)
        features = rng.normal(size=(1, 5, 4))
        mask_full = np.ones((1, 5))
        mask_padded = np.array([[0.0, 0.0, 1.0, 1.0, 1.0]])
        # Zero the embeddings at the padded slots — as the real encoder does —
        # then the pooled output should only reflect the three valid rows.
        features_padded = features.copy()
        features_padded[0, :2] = 0.0
        out_padded = view(Tensor(features_padded), mask_padded).data
        # Changing the padded slots (which stay masked) must not change the output.
        features_changed = features_padded.copy()
        features_changed[0, :2] = 123.0
        out_changed = view(Tensor(features_changed), mask_padded).data
        np.testing.assert_allclose(out_padded, out_changed, atol=1e-8)
        assert not np.allclose(out_padded, view(Tensor(features), mask_full).data)

    def test_causality_of_positionwise_outputs(self, rng):
        """Internally the attention is causal; with 'last' pooling the output only
        depends on the full prefix, so changing earlier items changes it, but with
        mean pooling over a single valid item it equals the single-item case."""
        view = DynamicView(4, pooling="last", rng=rng)
        features = rng.normal(size=(1, 4, 4))
        mask = np.ones((1, 4))
        baseline = view(Tensor(features), mask).data
        modified = features.copy()
        modified[0, 0] += 5.0
        assert not np.allclose(baseline, view(Tensor(modified), mask).data)

    def test_last_pooling_returns_final_position(self, rng):
        view = DynamicView(4, pooling="last", rng=rng)
        features = Tensor(rng.normal(size=(2, 3, 4)))
        mask = np.ones((2, 3))
        out = view(features, mask)
        assert out.shape == (2, 4)


class TestCrossView:
    def test_output_shape(self, rng):
        view = CrossView(8, rng=rng)
        static = Tensor(rng.normal(size=(3, 2, 8)))
        dynamic = Tensor(rng.normal(size=(3, 5, 8)))
        out = view(static, dynamic, np.ones((3, 5)))
        assert out.shape == (3, 8)

    def test_blocks_within_category_interactions(self, seqfm_config, tiny_batch):
        """Under the cross mask a feature never attends to its own category:
        history→history weights are exactly 0 (a static key is always there to
        take the mass), and static→static weights are exactly 0 on every
        instance that has a valid history event to attend to instead."""
        model = SeqFM(seqfm_config)
        num_static = tiny_batch.static_indices.shape[1]
        with_history = 0
        for index in range(len(tiny_batch)):
            maps = attention_maps(model, tiny_batch, index=index)
            assert not maps.cross[num_static:, num_static:].any()
            if maps.dynamic_valid.any():
                with_history += 1
                assert not maps.cross[:num_static, :num_static].any()
        assert with_history > 0

    def test_gradients_flow_to_both_inputs(self, rng):
        view = CrossView(4, rng=rng)
        static = Tensor(rng.normal(size=(2, 2, 4)), requires_grad=True)
        dynamic = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        view(static, dynamic, np.ones((2, 3))).sum().backward()
        assert static.grad is not None
        assert dynamic.grad is not None

    def test_padding_keys_are_masked(self, rng):
        view = CrossView(4, rng=rng)
        static = Tensor(rng.normal(size=(1, 2, 4)))
        dynamic_data = rng.normal(size=(1, 4, 4))
        dynamic_data[0, :2] = 0.0
        mask = np.array([[0.0, 0.0, 1.0, 1.0]])
        baseline = view(static, Tensor(dynamic_data), mask).data
        changed = dynamic_data.copy()
        changed[0, :2] = 7.0
        after = view(static, Tensor(changed), mask).data
        np.testing.assert_allclose(baseline, after, atol=1e-8)
