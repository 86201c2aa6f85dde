"""Maskable single-head self-attention (Eq. 6-13 of the paper).

SeqFM uses three self-attention heads — static, dynamic and cross — that all
share the same computation: project the input feature matrix into query, key
and value subspaces with view-specific weight matrices, compute scaled dot
product scores, add an additive attention mask, softmax-normalise and take
the weighted sum of values.  This module implements exactly that computation
for a batch of views; the masks themselves are built by
:mod:`repro.core.masks`.
"""

from __future__ import annotations

from typing import Optional, Tuple

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
