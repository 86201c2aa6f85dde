"""Tests for the attention-mask builders and the SeqFM configuration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SeqFMConfig
from repro.core.masks import NEG_INF, causal_mask, combine_masks, cross_view_mask, padding_key_mask


class TestCausalMask:
    def test_lower_triangle_is_open(self):
        mask = causal_mask(4)
        assert np.all(mask[np.tril_indices(4)] == 0.0)

    def test_upper_triangle_is_blocked(self):
        mask = causal_mask(4)
        assert np.all(mask[np.triu_indices(4, k=1)] == NEG_INF)

    def test_matches_paper_equation_10(self):
        """m_ij = 0 if i >= j else -inf (with row i, column j)."""
        mask = causal_mask(5)
        for i in range(5):
            for j in range(5):
                expected = 0.0 if i >= j else NEG_INF
                assert mask[i, j] == expected

    def test_single_position(self):
        assert causal_mask(1).shape == (1, 1)
        assert causal_mask(1)[0, 0] == 0.0

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            causal_mask(0)

    def test_shared_mask_is_read_only(self):
        """One array per seq_len is handed to every caller, so a write to it
        (directly or through a broadcast view) must raise, not corrupt it."""
        mask = causal_mask(6)
        assert causal_mask(6) is mask
        with pytest.raises(ValueError):
            mask[0, 5] = 0.0
        with pytest.raises(ValueError):
            mask[None, :, :][0, 0, 5] = 0.0
        assert mask[0, 5] == NEG_INF


class TestCrossViewMask:
    def test_matches_paper_equation_13(self):
        num_static, seq_len = 2, 3
        mask = cross_view_mask(num_static, seq_len)
        total = num_static + seq_len
        for i in range(total):
            for j in range(total):
                cross_pair = (i < num_static <= j) or (j < num_static <= i)
                expected = 0.0 if cross_pair else NEG_INF
                assert mask[i, j] == expected

    def test_shape(self):
        assert cross_view_mask(3, 4).shape == (7, 7)

    def test_diagonal_always_blocked(self):
        mask = cross_view_mask(2, 5)
        assert np.all(np.diag(mask) == NEG_INF)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            cross_view_mask(0, 3)
        with pytest.raises(ValueError):
            cross_view_mask(3, 0)


class TestPaddingKeyMask:
    def test_blocks_padding_columns(self):
        valid = np.array([[1.0, 1.0, 0.0]])
        mask = padding_key_mask(valid)
        assert mask.shape == (1, 1, 3)
        assert mask[0, 0, 0] == 0.0
        assert mask[0, 0, 2] == NEG_INF

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            padding_key_mask(np.ones(3))

    def test_combine_masks_floors_at_neg_inf(self):
        combined = combine_masks(causal_mask(3), np.full((3, 3), NEG_INF))
        assert combined.min() >= NEG_INF


class TestSeqFMConfig:
    def _base(self, **overrides):
        params = dict(static_vocab_size=10, dynamic_vocab_size=8)
        params.update(overrides)
        return SeqFMConfig(**params)

    def test_defaults_match_paper_unified_setting(self):
        config = self._base()
        assert config.ffn_layers == 1
        assert config.max_seq_len == 20
        assert config.dropout == 0.6

    def test_num_views(self):
        assert self._base().num_views() == 3
        assert self._base(use_cross_view=False).num_views() == 2
        assert self._base(use_cross_view=False, use_static_view=False).num_views() == 1

    def test_all_views_disabled_rejected(self):
        with pytest.raises(ValueError):
            self._base(use_static_view=False, use_dynamic_view=False, use_cross_view=False)

    def test_with_overrides_returns_new_config(self):
        config = self._base()
        modified = config.with_overrides(embed_dim=64)
        assert modified.embed_dim == 64
        assert config.embed_dim == 32

    @pytest.mark.parametrize("field,value", [
        ("static_vocab_size", 0),
        ("dynamic_vocab_size", 0),
        ("num_static_features", 0),
        ("max_seq_len", 0),
        ("embed_dim", 0),
        ("ffn_layers", 0),
        ("dropout", 1.0),
        ("dropout", -0.1),
        ("pooling", "sum"),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            self._base(**{field: value})
