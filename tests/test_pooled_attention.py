"""Pool-before-values attention: the block-structured kernels against the dense
reference they replace; the one-node training ops (``repro.nn.attention``,
``repro.nn.layers.layer_norm``) against the kernels, against the ``Tensor``
composites they replaced and against finite differences; and the
group-deduplicated (``dynamic_tile`` > 1) forward against the untiled one."""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autograd import Tensor, check_gradients
from repro.autograd.functional import attention_scores, softmax
from repro.autograd.tensor import as_tensor
from repro.core.config import SeqFMConfig
from repro.core.masks import padding_key_row
from repro.core.tasks import SeqFMRanker
from repro.core.views import (
    cross_attention_mask,
    cross_static_mask,
    cross_valid_mask,
    dynamic_attention_mask,
    dynamic_query_rows,
    mean_pool_weights,
)
from repro.data.features import FeatureBatch, FeatureEncoder
from repro.data.split import leave_one_out_split
from repro.nn import attention, kernels
from repro.nn.layers import layer_norm

SETTINGS = settings(max_examples=60, deadline=None)


# --------------------------------------------------------------------------- #
# The reference composites: the views and the layer norm as chains of small
# ``Tensor`` ops, whose gradients the autograd primitives derive.  Training ran
# on these before each became one node with a hand-derived backward.
# --------------------------------------------------------------------------- #
def composite_pooled_attention(
    queries: Tensor,
    keys: Tensor,
    values: Tensor,
    row_weights: np.ndarray,
    mask: Optional[np.ndarray] = None,
) -> Tensor:
    """``(r · softmax(QKᵀ/√d + M)) · V`` → ``(..., d)`` from primitive ops."""
    weights = softmax(attention_scores(queries, keys, mask=mask), axis=-1)
    return (Tensor(row_weights[..., None, :]) @ weights @ values).squeeze(-2)


def composite_pooled_cross_attention(
    static_qkv: Sequence[Tensor],
    history_qkv: Sequence[Tensor],
    row_weights: np.ndarray,
    static_mask: np.ndarray,
) -> Tensor:
    """The cross view (Eq. 11-13) in two row blocks from primitive ops, under
    the grouped shape rule of :func:`repro.nn.kernels.pooled_cross_attention`."""
    q_static, k_static, v_static = static_qkv
    q_history, k_history, v_history = history_qkv
    groups, candidates = k_history.shape[:-2], q_static.shape[:-2]
    num_static = q_static.shape[-2]
    scale = 1.0 / np.sqrt(q_static.shape[-1])
    on_history = _group_rows(q_static, groups) @ k_history.swapaxes(-1, -2)
    scores = Tensor.concatenate(
        [q_static @ k_static.swapaxes(-1, -2),
         _group_rows(on_history, candidates)], axis=-1,
    ) * scale + Tensor(static_mask)
    from_static = Tensor(row_weights[..., None, :num_static]) @ softmax(scores, axis=-1)
    on_static_keys = _group_rows(k_static, groups) @ q_history.swapaxes(-1, -2)
    weights = softmax(_group_rows(on_static_keys, candidates) * scale, axis=-2)
    from_history = weights @ Tensor(row_weights[..., num_static:, None])
    on_static = from_static[..., :num_static] + from_history.swapaxes(-1, -2)
    history_values = _group_rows(from_static[..., num_static:], groups) @ v_history
    return (on_static @ v_static + _group_rows(history_values, candidates)).squeeze(-2)


def _group_rows(x: Tensor, lead: tuple) -> Tensor:
    """Mirror of :func:`repro.nn.kernels._group_rows`."""
    return x if x.ndim == len(lead) + 2 else x.reshape(lead + (-1, x.shape[-1]))


def composite_layer_norm(x: Tensor, scale: Tensor, bias: Tensor, eps: float = 1e-8) -> Tensor:
    """Layer normalisation over the last axis, Eq. (16) of the paper.

    ``LN(h) = s ⊙ (h - μ) / σ + b`` where μ, σ are the mean and standard
    deviation of the elements of ``h`` along the feature axis.
    """
    x = as_tensor(x)
    mean = x.mean(axis=-1, keepdims=True)
    centred = x - mean
    variance = (centred * centred).mean(axis=-1, keepdims=True)
    normalised = centred / (variance + eps) ** 0.5
    return normalised * scale + bias


def assert_same_gradients(op, reference, inputs, rng):
    """``op`` and ``reference`` over copies of ``inputs`` (Tensors; those with
    ``requires_grad`` are differentiated): the same forward, bitwise, and the
    same vector-Jacobian product under one random upstream gradient to 1e-12."""
    outcomes = []
    upstream = None
    for fn in (op, reference):
        copies = [Tensor(t.data, requires_grad=t.requires_grad) for t in inputs]
        out = fn(copies)
        if upstream is None:
            upstream = rng.normal(size=out.shape)
        out.backward(upstream)
        outcomes.append((out.data, [t.grad for t in copies]))
    (out, grads), (expected_out, expected_grads) = outcomes
    np.testing.assert_array_equal(out, expected_out)
    for tensor, grad, expected in zip(inputs, grads, expected_grads):
        if not tensor.requires_grad:
            assert grad is None
            continue
        np.testing.assert_allclose(grad, expected, rtol=0.0, atol=1e-12)


@st.composite
def view_inputs(draw):
    """Random view sizes, features, weights and a history validity mask whose
    rows run from all-padding through left-padded to full."""
    batch = draw(st.integers(1, 5))
    num_static = draw(st.integers(1, 4))
    seq_len = draw(st.integers(1, 12))
    dim = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lengths = draw(st.lists(st.integers(0, seq_len), min_size=batch, max_size=batch))
    valid = (np.arange(seq_len)[None, :] >= seq_len - np.array(lengths)[:, None]).astype(float)
    static = rng.normal(size=(batch, num_static, dim))
    # padding rows embed to zero, as the real padding_idx embedding does
    history = rng.normal(size=(batch, seq_len, dim)) * valid[..., None]
    weights = [rng.normal(size=(dim, dim)) for _ in range(3)]
    return static, history, valid, weights


def dense_cross_view(static, history, valid, weights):
    """The cross view as it was: full (T, T) attention, then the masked mean."""
    num_static, seq_len = static.shape[-2], history.shape[-2]
    combined = np.concatenate([static, history], axis=-2)
    combined_valid = cross_valid_mask(num_static, valid)
    attended = kernels.scaled_dot_product_attention(
        *kernels.project_qkv(combined, *weights),
        mask=cross_attention_mask(num_static, seq_len, combined_valid),
    )
    return kernels.masked_mean_pool(attended, combined_valid)


def pooled_cross_view(static, history, valid, weights):
    num_static = static.shape[-2]
    return kernels.pooled_cross_attention(
        kernels.project_qkv(static, *weights),
        kernels.project_qkv(history, *weights),
        mean_pool_weights(cross_valid_mask(num_static, valid)),
        cross_static_mask(num_static, padding_key_row(valid)),
    )


class TestDenseReferencePooling:
    """The dense pools the pooled kernels are checked against."""

    def test_mean_pool(self):
        x = np.random.default_rng(0).normal(size=(2, 4, 3))
        np.testing.assert_allclose(kernels.mean_pool(x), x.mean(axis=-2))

    def test_masked_mean_pool_ignores_padding(self):
        x = np.zeros((1, 3, 2))
        x[0, 0] = [2.0, 2.0]
        x[0, 1] = [4.0, 4.0]
        x[0, 2] = [100.0, 100.0]  # padding position
        out = kernels.masked_mean_pool(x, np.array([[1.0, 1.0, 0.0]]))
        np.testing.assert_allclose(out, [[3.0, 3.0]])

    def test_masked_mean_pool_all_padding_is_zero(self):
        out = kernels.masked_mean_pool(np.ones((1, 3, 2)), np.zeros((1, 3)))
        np.testing.assert_allclose(out, np.zeros((1, 2)))


class TestPooledKernelsMatchDenseReference:
    @SETTINGS
    @given(view_inputs())
    def test_cross_view_per_row_history(self, inputs):
        static, history, valid, weights = inputs
        np.testing.assert_allclose(
            pooled_cross_view(static, history, valid, weights),
            dense_cross_view(static, history, valid, weights), rtol=0.0, atol=1e-12)

    @SETTINGS
    @given(view_inputs())
    def test_cross_view_shared_history_broadcast(self, inputs):
        """One (n, d) history broadcast over every static row (the ranking
        form) equals the dense view of that history copied out per row."""
        static, history, valid, weights = inputs
        shared = pooled_cross_view(static, history[0], valid[:1], weights)
        copies = np.broadcast_to(history[0], history.shape)
        np.testing.assert_allclose(
            shared,
            dense_cross_view(static, copies, np.broadcast_to(valid[:1], valid.shape), weights),
            rtol=0.0, atol=1e-12)

    @SETTINGS
    @given(view_inputs(), st.integers(1, 4), st.booleans(), st.integers(0, 2**32 - 1))
    def test_cross_view_grouped_history(self, inputs, num_candidates, ranking, seed):
        """The grouped rule — static ``(groups, C, n°, d)`` against one
        ``(groups, n˙, d)`` history per group, or the ranking form
        ``(C, n°, d)`` against one ``(n˙, d)`` — equals the dense per-row view
        with each group's history copied out to its C rows (C = 1 and
        all-padding histories included)."""
        static, history, valid, weights = inputs
        groups, num_static, dim = static.shape
        static = np.random.default_rng(seed).normal(size=(groups, num_candidates, num_static, dim))
        if ranking:
            static, history, valid = static[0], history[0], valid[:1]
            row_weights = mean_pool_weights(cross_valid_mask(num_static, valid))
            static_mask = cross_static_mask(num_static, padding_key_row(valid))
        else:
            row_weights = mean_pool_weights(cross_valid_mask(num_static, valid))[:, None]
            static_mask = cross_static_mask(num_static, padding_key_row(valid))[:, None]
        grouped = kernels.pooled_cross_attention(
            kernels.project_qkv(static, *weights), kernels.project_qkv(history, *weights),
            row_weights, static_mask)
        per_row = dense_cross_view(
            static.reshape(-1, num_static, dim),
            np.repeat(history.reshape(-1, *history.shape[-2:]), num_candidates, axis=0),
            np.repeat(valid, num_candidates, axis=0), weights)
        assert grouped.shape == static.shape[:-2] + (dim,)
        np.testing.assert_allclose(grouped.reshape(-1, dim), per_row, rtol=0.0, atol=1e-12)

    @SETTINGS
    @given(view_inputs())
    def test_cross_static_mask_is_the_static_rows_of_the_dense_mask(self, inputs):
        static, history, valid, _ = inputs
        num_static, seq_len = static.shape[-2], history.shape[-2]
        dense = cross_attention_mask(num_static, seq_len, cross_valid_mask(num_static, valid))
        rows = np.broadcast_to(cross_static_mask(num_static, padding_key_row(valid)),
                               dense[:, :num_static].shape)
        np.testing.assert_array_equal(rows, dense[:, :num_static])

    @SETTINGS
    @given(view_inputs(), st.sampled_from(["mean", "last"]))
    def test_dynamic_view(self, inputs, pooling):
        _, history, valid, weights = inputs
        queries, keys, values = kernels.project_qkv(history, *weights)
        attended = kernels.scaled_dot_product_attention(
            queries, keys, values, mask=dynamic_attention_mask(padding_key_row(valid)))
        dense = (attended[:, -1, :] if pooling == "last"
                 else kernels.masked_mean_pool(attended, valid))
        rows, mask, row_weights = dynamic_query_rows(
            queries, valid, padding_key_row(valid), pooling)
        np.testing.assert_allclose(
            kernels.pooled_attention(rows, keys, values, row_weights, mask=mask),
            dense, rtol=0.0, atol=1e-12)

    @SETTINGS
    @given(view_inputs())
    def test_static_view(self, inputs):
        static, _, _, weights = inputs
        queries, keys, values = kernels.project_qkv(static, *weights)
        uniform = np.full(static.shape[:-1], 1.0 / static.shape[-2])
        np.testing.assert_allclose(
            kernels.pooled_attention(queries, keys, values, uniform),
            kernels.mean_pool(kernels.scaled_dot_product_attention(queries, keys, values)),
            rtol=0.0, atol=1e-12)


class TestTensorTwins:
    """The one-node training ops: forward equal to their kernels bit for bit,
    gradients equal to the reference composites' to 1e-12 and to finite
    differences.  The finite-difference rows keep at least one valid event: on
    the mask floor (scores − 1e9) a 1e-6 step is below the float spacing, so
    finite differences cannot see those rows."""

    VALID = np.array([[0.0, 1.0, 1.0], [1.0, 1.0, 1.0]])

    def _tensors(self, rng, *shapes):
        return [Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes]

    def test_pooled_attention_gradients(self, rng):
        weigh = Tensor(rng.normal(size=(2, 4)))
        mask = dynamic_attention_mask(padding_key_row(self.VALID))
        row_weights = mean_pool_weights(self.VALID)
        inputs = self._tensors(rng, (2, 3, 4), (2, 3, 4), (2, 3, 4))

        def loss(ts):
            return (attention.pooled_attention(ts[0], ts[1], ts[2], row_weights, mask=mask)
                    * weigh).sum()

        assert check_gradients(loss, inputs)
        np.testing.assert_array_equal(
            attention.pooled_attention(*inputs, row_weights, mask=mask).data,
            kernels.pooled_attention(*(t.data for t in inputs), row_weights, mask=mask))

    @SETTINGS
    @given(view_inputs(), st.sampled_from(["static", "mean", "last"]),
           st.sampled_from(["all", "values", "queries-keys"]))
    def test_pooled_attention_matches_kernel_and_composite(self, inputs, view, differentiated):
        """The static view and the dynamic view (mean and last pooling),
        all-padding histories included; ``differentiated`` leaves some inputs
        without ``requires_grad``, whose gradients are then skipped."""
        static, history, valid, weights = inputs
        features = static if view == "static" else history
        queries, keys, values = kernels.project_qkv(features, *weights)
        if view == "static":
            mask, row_weights = None, np.full(queries.shape[:-1], 1.0 / queries.shape[-2])
        else:
            queries, mask, row_weights = dynamic_query_rows(
                queries, valid, padding_key_row(valid), view)
        np.testing.assert_array_equal(
            attention.pooled_attention(
                Tensor(queries), Tensor(keys), Tensor(values), row_weights, mask=mask).data,
            kernels.pooled_attention(queries, keys, values, row_weights, mask=mask))
        wanted = {"all": (True, True, True), "values": (False, False, True),
                  "queries-keys": (True, True, False)}[differentiated]
        tensors = [Tensor(a, requires_grad=w) for a, w in zip((queries, keys, values), wanted)]
        assert_same_gradients(
            lambda ts: attention.pooled_attention(*ts, row_weights, mask=mask),
            lambda ts: composite_pooled_attention(*ts, row_weights, mask=mask),
            tensors, np.random.default_rng(0))

    @pytest.mark.parametrize("rows", [1, 3, 200])
    def test_layer_norm_matches_twin(self, rng, rows):
        """The GEMV-mean kernel against the training node.  Row 0 is constant:
        its variance is 0, so only eps is left and the row maps to the bias.
        eps = 1e-8 amplifies any rounding of that row's mean by 1e4, so the
        row is one whose mean both sides compute exactly (3 · 1/16 and its
        partial sums are dyadic)."""
        dim = 16
        x = rng.normal(size=(rows, dim))
        x[0] = 3.0
        scale, bias = rng.normal(size=dim), rng.normal(size=dim)
        expected = layer_norm(Tensor(x), Tensor(scale), Tensor(bias)).data
        actual = kernels.layer_norm(x, scale, bias)
        np.testing.assert_allclose(actual, expected, rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(actual[0], bias)

    @pytest.mark.parametrize("shape", [(5,), (3, 7), (2, 4, 6)])
    @pytest.mark.parametrize("differentiated", ["all", "x", "affine"])
    def test_layer_norm_matches_composite(self, rng, shape, differentiated):
        """Forward bitwise equal to the composite it replaced, gradients to
        1e-12; ``differentiated`` picks which inputs require a gradient."""
        dim = shape[-1]
        x = rng.normal(size=shape) * 3.0 + 1.0
        wanted = {"all": (True, True, True), "x": (True, False, False),
                  "affine": (False, True, True)}[differentiated]
        tensors = [Tensor(a, requires_grad=w) for a, w in
                   zip((x, rng.normal(size=dim), rng.normal(size=dim)), wanted)]
        assert_same_gradients(lambda ts: layer_norm(*ts), lambda ts: composite_layer_norm(*ts),
                              tensors, rng)

    # static (..., C, n°, d), history (..., n˙, d), its validity rows, and
    # whether the masks take a C axis: per row, (groups, C) grouped, ranking.
    CROSS_FORMS = {
        "per-row": ((2, 2, 4), (2, 3, 4), VALID, False),
        "grouped": ((2, 3, 2, 4), (2, 3, 4), VALID, True),
        "ranking": ((3, 2, 4), (3, 4), VALID[:1], False),
    }

    def _cross_masks(self, form):
        _, _, valid, candidate_axis = self.CROSS_FORMS[form]
        row_weights = mean_pool_weights(cross_valid_mask(2, valid))
        static_mask = cross_static_mask(2, padding_key_row(valid))
        if candidate_axis:
            row_weights, static_mask = row_weights[:, None], static_mask[:, None]
        return row_weights, static_mask

    @pytest.mark.parametrize("form", list(CROSS_FORMS))
    def test_pooled_cross_attention_gradients(self, rng, form):
        static_shape, history_shape, _, _ = self.CROSS_FORMS[form]
        weigh = Tensor(rng.normal(size=static_shape[:-2] + (4,)))
        row_weights, static_mask = self._cross_masks(form)
        inputs = self._tensors(rng, *[static_shape] * 3, *[history_shape] * 3)

        def loss(ts):
            return (attention.pooled_cross_attention(ts[:3], ts[3:], row_weights, static_mask)
                    * weigh).sum()

        assert check_gradients(loss, inputs)
        arrays = [t.data for t in inputs]
        np.testing.assert_array_equal(
            attention.pooled_cross_attention(
                inputs[:3], inputs[3:], row_weights, static_mask).data,
            kernels.pooled_cross_attention(arrays[:3], arrays[3:], row_weights, static_mask))

    @pytest.mark.parametrize("form", list(CROSS_FORMS))
    @pytest.mark.parametrize("differentiated", ["all", "static", "history", "values"])
    def test_pooled_cross_attention_matches_composite(self, rng, form, differentiated):
        static_shape, history_shape, _, _ = self.CROSS_FORMS[form]
        row_weights, static_mask = self._cross_masks(form)
        wanted = {"all": [True] * 6, "static": [True] * 3 + [False] * 3,
                  "history": [False] * 3 + [True] * 3,
                  "values": [False, False, True, False, False, True]}[differentiated]
        tensors = [Tensor(rng.normal(size=shape), requires_grad=w)
                   for shape, w in zip([static_shape] * 3 + [history_shape] * 3, wanted)]
        assert_same_gradients(
            lambda ts: attention.pooled_cross_attention(ts[:3], ts[3:], row_weights, static_mask),
            lambda ts: composite_pooled_cross_attention(ts[:3], ts[3:], row_weights, static_mask),
            tensors, rng)

    @SETTINGS
    @given(view_inputs(), st.integers(1, 4), st.booleans(), st.integers(0, 2**32 - 1))
    def test_pooled_cross_attention_grouped_matches_kernel_and_composite(
            self, inputs, num_candidates, ranking, seed):
        """Random sizes in the per-row (C = 1 without the C axis), grouped and
        ranking forms, all-padding histories included."""
        static, history, valid, weights = inputs
        groups, num_static, dim = static.shape
        rng = np.random.default_rng(seed)
        if ranking:
            static = rng.normal(size=(num_candidates, num_static, dim))
            history, valid = history[0], valid[:1]
            row_weights = mean_pool_weights(cross_valid_mask(num_static, valid))
            static_mask = cross_static_mask(num_static, padding_key_row(valid))
        elif num_candidates > 1:
            static = rng.normal(size=(groups, num_candidates, num_static, dim))
            row_weights = mean_pool_weights(cross_valid_mask(num_static, valid))[:, None]
            static_mask = cross_static_mask(num_static, padding_key_row(valid))[:, None]
        else:
            row_weights = mean_pool_weights(cross_valid_mask(num_static, valid))
            static_mask = cross_static_mask(num_static, padding_key_row(valid))
        arrays = [*kernels.project_qkv(static, *weights), *kernels.project_qkv(history, *weights)]
        np.testing.assert_array_equal(
            attention.pooled_cross_attention(
                [Tensor(a) for a in arrays[:3]], [Tensor(a) for a in arrays[3:]],
                row_weights, static_mask).data,
            kernels.pooled_cross_attention(arrays[:3], arrays[3:], row_weights, static_mask))
        assert_same_gradients(
            lambda ts: attention.pooled_cross_attention(ts[:3], ts[3:], row_weights, static_mask),
            lambda ts: composite_pooled_cross_attention(ts[:3], ts[3:], row_weights, static_mask),
            [Tensor(a, requires_grad=True) for a in arrays], rng)


class TestFusedGroupsEqualUntiled:
    """A candidate-fused batch (``dynamic_tile`` > 1) attends each group's
    history once for all of its candidates; dropping the hint attends every
    row's own copy.  Same loss, same parameter gradients."""

    NUM_DRAWS = 3

    @pytest.mark.parametrize("pooling", ["mean", "last"])
    def test_loss_and_gradients(self, seqfm_config, encoder, tiny_batch, sampler, pooling):
        negatives = np.stack([
            sampler.sample_batch(tiny_batch.user_ids, tiny_batch.object_ids)
            for _ in range(self.NUM_DRAWS)
        ])
        fused = tiny_batch.with_candidates(encoder, negatives)
        assert fused.dynamic_tile == 1 + self.NUM_DRAWS
        outcomes = []
        for batch in (fused, replace(fused, dynamic_tile=1)):
            task = SeqFMRanker(seqfm_config.with_overrides(pooling=pooling))
            loss = task.fused_loss(batch, len(tiny_batch), self.NUM_DRAWS)
            loss.backward()
            outcomes.append((loss.item(), [p.grad.copy() for p in task.parameters()]))
        (tiled_loss, tiled_grads), (untiled_loss, untiled_grads) = outcomes
        assert tiled_loss == pytest.approx(untiled_loss, abs=1e-12)
        for tiled, untiled in zip(tiled_grads, untiled_grads):
            np.testing.assert_allclose(tiled, untiled, rtol=0.0, atol=1e-12)


class TestFusedGraphHasNoPerRowHistory:
    """The fused step attends each history once per group: no tensor in its
    graph has one row per candidate (``B·(1+k)``) *and* an n˙ axis — the
    shape of a history copied out to every row.  The sizes are chosen so that
    n˙ differs from every other axis length of the graph."""

    NUM_DRAWS = 2
    SEQ_LEN = 5

    def test_no_tensor_has_candidate_rows_and_a_history_axis(self, tiny_log, sampler):
        encoder = FeatureEncoder(tiny_log, max_seq_len=self.SEQ_LEN)
        examples = encoder.encode_training_instances(leave_one_out_split(tiny_log).train)
        batch = FeatureBatch.from_examples(examples[:8])
        negatives = np.stack([sampler.sample_batch(batch.user_ids, batch.object_ids)
                              for _ in range(self.NUM_DRAWS)])
        fused = batch.with_candidates(encoder, negatives)
        config = SeqFMConfig(static_vocab_size=encoder.static_vocab_size,
                             dynamic_vocab_size=encoder.dynamic_vocab_size,
                             max_seq_len=self.SEQ_LEN, embed_dim=8, dropout=0.0, seed=0)
        loss = SeqFMRanker(config).fused_loss(fused, len(batch), self.NUM_DRAWS)

        rows = len(batch) * (1 + self.NUM_DRAWS)
        assert self.SEQ_LEN not in (config.embed_dim, fused.static_indices.shape[1],
                                    1 + self.NUM_DRAWS, len(batch), rows)
        seen, stack, shapes = set(), [loss], []
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            shapes.append(node.shape)
            stack.extend(node._parents)
        per_row_history = [shape for shape in shapes
                           if shape[:1] == (rows,) and self.SEQ_LEN in shape[1:]]
        assert per_row_history == []
        # the walk did reach the cross view's grouped products
        assert any(shape[:2] == (len(batch), 1 + self.NUM_DRAWS) for shape in shapes)


class TestFusedGraphIsSmall:
    """One candidate-fused step of a default SeqFM (one FFN layer, no dropout)
    reaches 64 interior graph nodes from its loss.  When the views and the
    layer norms were chains of small ``Tensor`` ops the same step reached 146:
    about 12 per pooled attention view, 25 for the cross view and 10 per layer
    norm.  Each of those is now a single node."""

    INTERIOR_NODES = 64

    def test_interior_node_count_and_one_node_per_view_and_norm(self, tiny_log, sampler):
        encoder = FeatureEncoder(tiny_log, max_seq_len=5)
        examples = encoder.encode_training_instances(leave_one_out_split(tiny_log).train)
        batch = FeatureBatch.from_examples(examples[:8])
        negatives = np.stack([sampler.sample_batch(batch.user_ids, batch.object_ids)
                              for _ in range(2)])
        config = SeqFMConfig(static_vocab_size=encoder.static_vocab_size,
                             dynamic_vocab_size=encoder.dynamic_vocab_size,
                             max_seq_len=5, dropout=0.0, seed=0)
        loss = SeqFMRanker(config).fused_loss(
            batch.with_candidates(encoder, negatives), len(batch), 2)

        seen, stack, ops = set(), [loss], []
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node._backward_fn is not None:
                ops.append(node._backward_fn.__qualname__.split(".")[0])
            stack.extend(node._parents)
        assert len(ops) == self.INTERIOR_NODES
        # static and dynamic view, cross view, one norm per view through the FFN
        assert ops.count("pooled_attention") == 2
        assert ops.count("pooled_cross_attention") == 1
        assert ops.count("layer_norm") == 3
