"""Differentiable functional building blocks on top of :class:`Tensor`.

These are the composite operations that the neural-network layers in
:mod:`repro.nn` and the SeqFM model in :mod:`repro.core` are built from.  Each
function takes and returns :class:`~repro.autograd.tensor.Tensor` objects and
composes primitive tensor operations, so gradients flow through automatically.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd.tensor import Tensor, as_tensor


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit, ``max(x, 0)``."""
    return as_tensor(x).relu()


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid, numerically clipped to avoid overflow."""
    return as_tensor(x).sigmoid()


def tanh(x: Tensor) -> Tensor:
    return as_tensor(x).tanh()


def log_sigmoid(x: Tensor) -> Tensor:
    """Numerically stable ``log(sigmoid(x))``.

    Uses the identity ``log(sigmoid(x)) = -softplus(-x)`` where ``softplus`` is
    computed with the max trick so that large-magnitude inputs do not overflow.
    """
    x = as_tensor(x)
    return -softplus(-x)


def softplus(x: Tensor) -> Tensor:
    """Stable ``log(1 + exp(x)) = max(x, 0) + log(1 + exp(-|x|))``."""
    x = as_tensor(x)
    positive_part = x.relu()
    return positive_part + ((-x.abs()).exp() + 1.0).log()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` with the usual max-subtraction for stability.

    The subtracted maximum is treated as a constant (detached) which is the
    standard trick: it does not change the mathematical value of the softmax
    and keeps the gradient exact.
    """
    x = as_tensor(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def attention_scores(
    queries: Tensor, keys: Tensor, mask: Optional[np.ndarray] = None
) -> Tensor:
    """Masked, scaled dot-product attention scores ``QKᵀ/√d + M``."""
    d = queries.shape[-1]
    scores = queries @ keys.swapaxes(-1, -2) * (1.0 / np.sqrt(d))
    if mask is not None:
        scores = scores + Tensor(np.asarray(mask, dtype=np.float64))
    return scores


def scaled_dot_product_attention(
    queries: Tensor,
    keys: Tensor,
    values: Tensor,
    mask: Optional[np.ndarray] = None,
) -> Tensor:
    """Eq. (6)/(9)/(11) of the paper: ``softmax(QKᵀ/√d + M)·V``.

    Parameters
    ----------
    queries, keys, values:
        Tensors of shape ``(..., n, d)``.
    mask:
        Optional additive attention mask of shape ``(n, n)`` (or broadcastable
        to the score matrix) containing ``0`` for allowed positions and a large
        negative constant for blocked positions.  The paper writes ``-inf``; a
        large finite constant is used so the softmax stays well-defined even
        for rows where every position is blocked (all-padding rows).
    """
    return softmax(attention_scores(queries, keys, mask=mask), axis=-1) @ values


def dropout(x: Tensor, ratio: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout.

    During training each element is zeroed with probability ``ratio`` and the
    survivors are scaled by ``1/(1-ratio)``; at test time the input passes
    through unchanged, matching the "model averaging" interpretation in the
    paper (Section III-F).
    """
    if not 0.0 <= ratio < 1.0:
        raise ValueError(f"dropout ratio must be in [0, 1), got {ratio}")
    if not training or ratio <= 0.0:
        return as_tensor(x)
    x = as_tensor(x)
    keep_probability = 1.0 - ratio
    mask = (rng.random(x.shape) < keep_probability).astype(np.float64) / keep_probability
    return x * Tensor(mask)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight + bias`` with ``weight`` of shape (in, out)."""
    out = as_tensor(x) @ weight
    if bias is not None:
        out = out + bias
    return out


def embedding_lookup(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row gather out of an embedding matrix; gradients scatter-add back."""
    return table.gather_rows(np.asarray(indices, dtype=np.int64))


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean log loss of Eq. (24) computed from raw logits for stability.

    ``-y·log σ(z) - (1-y)·log(1-σ(z)) = softplus(z) - y·z``.
    """
    logits = as_tensor(logits)
    targets_t = Tensor(np.asarray(targets, dtype=np.float64))
    per_example = softplus(logits) - targets_t * logits
    return per_example.mean()


def bpr_loss(positive_scores: Tensor, negative_scores: Tensor) -> Tensor:
    """Bayesian Personalised Ranking loss of Eq. (21).

    ``-mean log σ(ŷ⁺ - ŷ⁻)``; implemented via :func:`log_sigmoid` so very
    confident score gaps do not overflow.
    """
    margin = as_tensor(positive_scores) - as_tensor(negative_scores)
    return -log_sigmoid(margin).mean()


def mse_loss(predictions: Tensor, targets: np.ndarray) -> Tensor:
    """Mean squared error used for the regression task (Eq. 26 averaged)."""
    diff = as_tensor(predictions) - Tensor(np.asarray(targets, dtype=np.float64))
    return (diff * diff).mean()
