"""Maskable single-head self-attention (Eq. 6-13 of the paper).

SeqFM uses three self-attention heads — static, dynamic and cross — that all
share the same computation: project the input feature matrix into query, key
and value subspaces with view-specific weight matrices, compute scaled dot
product scores, add an additive attention mask, softmax-normalise and take
the weighted sum of values.  This module implements exactly that computation
for a batch of views; the masks themselves are built by
:mod:`repro.core.masks`.

The SeqFM views train on :func:`pooled_attention` and
:func:`pooled_cross_attention`: each runs the forward of the
:mod:`repro.nn.kernels` function of the same name, operation for operation,
as **one** graph node whose backward is derived by hand, so a view keeps only
its softmax weights and pooled rows alive until ``backward``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.nn import init, kernels
from repro.nn.module import Module, Parameter


class SelfAttention(Module):
    """Single-head scaled dot-product self-attention with an optional mask.

    Parameters
    ----------
    dim:
        Latent dimension ``d``; queries, keys and values all live in R^d, as
        in the paper (W_Q, W_K, W_V ∈ R^{d×d}).
    rng:
        Generator the projection weights are drawn from.
    """

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        if dim <= 0:
            raise ValueError("attention dim must be positive")
        self.dim = dim
        self.w_query = Parameter(init.xavier_uniform((dim, dim), rng), name="w_query")
        self.w_key = Parameter(init.xavier_uniform((dim, dim), rng), name="w_key")
        self.w_value = Parameter(init.xavier_uniform((dim, dim), rng), name="w_value")

    def forward(self, features: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        """Apply self-attention to ``features`` of shape ``(..., n, d)``.

        ``mask`` is an additive attention mask broadcastable to the score
        matrix ``(..., n, n)``: 0 for allowed pairs, a large negative value
        for blocked pairs (the paper's −∞ entries).
        """
        queries, keys, values = self.project(features)
        return F.scaled_dot_product_attention(queries, keys, values, mask=mask)

    def project(self, features: Tensor) -> Tuple[Tensor, Tensor, Tensor]:
        """Queries, keys and values of ``features`` (the projections of Eq. 6)."""
        return features @ self.w_query, features @ self.w_key, features @ self.w_value

    def attention_weights(self, features: Tensor, mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Return the softmax attention weight matrix (for tests/inspection)."""
        queries = (features @ self.w_query).data
        keys = (features @ self.w_key).data
        return kernels.attention_weights(queries, keys, mask=mask)

    def __repr__(self) -> str:
        return f"SelfAttention(dim={self.dim})"


def _softmax_backward(weights: np.ndarray, grad: np.ndarray, axis: int) -> np.ndarray:
    """Vector-Jacobian product of a softmax along ``axis``: ``w ⊙ (g − Σ g⊙w)``."""
    return weights * (grad - (grad * weights).sum(axis=axis, keepdims=True))


def pooled_attention(
    queries: Tensor,
    keys: Tensor,
    values: Tensor,
    row_weights: np.ndarray,
    mask: Optional[np.ndarray] = None,
) -> Tensor:
    """``(r · softmax(QKᵀ/√d + M)) · V`` → ``(..., d)`` as one graph node: the
    forward of :func:`repro.nn.kernels.pooled_attention`, bit for bit."""
    scale = 1.0 / np.sqrt(queries.shape[-1])
    weights = kernels.softmax(kernels.attention_scores(queries.data, keys.data, mask=mask))
    pooled = row_weights[..., None, :] @ weights  # (..., 1, n)
    out = (pooled @ values.data)[..., 0, :]

    def backward(grad: np.ndarray) -> None:
        grad = grad[..., None, :]  # (..., 1, d)
        if values.requires_grad:
            values._accumulate(np.swapaxes(pooled, -1, -2) @ grad)
        if not (queries.requires_grad or keys.requires_grad):
            return
        d_weights = row_weights[..., :, None] * (grad @ np.swapaxes(values.data, -1, -2))
        d_scores = _softmax_backward(weights, d_weights, axis=-1) * scale
        if queries.requires_grad:
            queries._accumulate(d_scores @ keys.data)
        if keys.requires_grad:
            keys._accumulate(np.swapaxes(d_scores, -1, -2) @ queries.data)

    return Tensor._make(out, (queries, keys, values), backward)


def pooled_cross_attention(
    static_qkv: Sequence[Tensor],
    history_qkv: Sequence[Tensor],
    row_weights: np.ndarray,
    static_mask: np.ndarray,
) -> Tensor:
    """The cross view (Eq. 11-13) as one graph node: the forward of
    :func:`repro.nn.kernels.pooled_cross_attention`, bit for bit, under its
    grouped shape rule.  Backward keeps that rule: a history's gradient is
    summed over its candidates inside the grouped GEMMs, with no per-candidate
    copy."""
    q_static, k_static, v_static = static_qkv
    q_history, k_history, v_history = history_qkv
    qs, ks, vs = q_static.data, k_static.data, v_static.data
    qh, kh, vh = q_history.data, k_history.data, v_history.data
    group = kernels._group_rows
    groups, candidates = kh.shape[:-2], qs.shape[:-2]
    num_static = qs.shape[-2]
    scale = 1.0 / np.sqrt(qs.shape[-1])
    # forward: kernels.pooled_cross_attention, keeping what backward reads
    on_history = group(qs, groups) @ kh.swapaxes(-1, -2)
    scores = np.concatenate(
        [qs @ ks.swapaxes(-1, -2), group(on_history, candidates)], axis=-1,
    ) * scale + static_mask
    static_weights = kernels.softmax(scores)  # (..., n°, T), over all keys
    from_static = row_weights[..., None, :num_static] @ static_weights  # (..., 1, T)
    on_static_keys = group(ks, groups) @ qh.swapaxes(-1, -2)
    history_weights = kernels.softmax(group(on_static_keys, candidates) * scale, axis=-2)
    from_history = history_weights @ row_weights[..., num_static:, None]  # (..., n°, 1)
    on_static = from_static[..., :num_static] + from_history.swapaxes(-1, -2)
    from_static_history = group(from_static[..., num_static:], groups)
    history_values = from_static_history @ vh
    out = (on_static @ vs + group(history_values, candidates))[..., 0, :]

    def backward(grad: np.ndarray) -> None:
        grad = grad[..., None, :]  # (..., C, 1, d)
        grad_history_values = group(grad, groups)
        if v_static.requires_grad:
            v_static._accumulate(on_static.swapaxes(-1, -2) @ grad)
        if v_history.requires_grad:
            v_history._accumulate(from_static_history.swapaxes(-1, -2) @ grad_history_values)
        if not (q_static.requires_grad or k_static.requires_grad
                or q_history.requires_grad or k_history.requires_grad):
            return
        d_on_static = grad @ vs.swapaxes(-1, -2)  # (..., C, 1, n°)
        d_from_static = np.concatenate(
            [d_on_static,
             (grad_history_values @ vh.swapaxes(-1, -2)).reshape(d_on_static.shape[:-1] + (-1,))],
            axis=-1,
        )  # (..., C, 1, T)
        # static query rows: from_static = r° · softmax(scores)
        d_scores = _softmax_backward(
            static_weights, row_weights[..., :num_static, None] * d_from_static, axis=-1,
        ) * scale
        d_static_keys, d_on_history = d_scores[..., :num_static], d_scores[..., num_static:]
        d_on_history = group(d_on_history, groups)  # (groups..., C·n°, n˙)
        # history query rows: from_history = softmax(on_static_keys, over keys) · r˙
        d_on_static_keys = group(_softmax_backward(
            history_weights,
            d_on_static.swapaxes(-1, -2) * row_weights[..., None, num_static:], axis=-2,
        ) * scale, groups)  # (groups..., C·n°, n˙)
        if q_static.requires_grad:
            q_static._accumulate(
                d_static_keys @ ks + (d_on_history @ kh).reshape(qs.shape))
        if k_static.requires_grad:
            k_static._accumulate(
                d_static_keys.swapaxes(-1, -2) @ qs + (d_on_static_keys @ qh).reshape(ks.shape))
        if k_history.requires_grad:
            k_history._accumulate(d_on_history.swapaxes(-1, -2) @ group(qs, groups))
        if q_history.requires_grad:
            q_history._accumulate(d_on_static_keys.swapaxes(-1, -2) @ group(ks, groups))

    return Tensor._make(
        out, (q_static, k_static, v_static, q_history, k_history, v_history), backward)
