"""Deep Crossing (Shan et al., KDD 2016).

Stacks residual units on top of the concatenated feature embeddings: each
residual unit is a two-layer MLP whose output is added back to its input
(the "residual network blocks upon the concatenation layer" described in the
paper's related-work discussion), followed by a scoring layer.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor
from repro.baselines.base import BaselineScorer
from repro.data.features import FeatureBatch
from repro.nn.linear import Linear
from repro.nn.module import Module


class _ResidualUnit(Module):
    """y = x + W₂·relu(W₁·x + b₁) + b₂ with a hidden expansion."""

    def __init__(self, dim: int, hidden_dim: int, rng: np.random.Generator):
        super().__init__()
        self.expand = Linear(dim, hidden_dim, rng=rng)
        self.project = Linear(hidden_dim, dim, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return x + self.project(self.expand(x).relu()).relu()


class DeepCross(BaselineScorer):
    """Residual-block MLP over the concatenation of feature embeddings."""

    def __init__(
        self,
        static_vocab_size: int,
        dynamic_vocab_size: int,
        embed_dim: int = 32,
        num_residual_units: int = 2,
        hidden_dim: int = 64,
        seed: int = 0,
    ):
        super().__init__(static_vocab_size, dynamic_vocab_size, embed_dim, seed)
        if num_residual_units < 1:
            raise ValueError("num_residual_units must be positive")
        input_dim = 3 * embed_dim  # user + candidate + pooled history
        self.residual_units = [
            _ResidualUnit(input_dim, hidden_dim, rng=self.rng) for _ in range(num_residual_units)
        ]
        self.scoring = Linear(input_dim, 1, rng=self.rng)

    def forward(self, batch: FeatureBatch) -> Tensor:
        static = self.embed_static(batch)
        user_embedding = static[:, 0, :]
        candidate_embedding = static[:, 1, :]
        history_embedding = self.history_mean(batch)
        hidden = Tensor.concatenate(
            [user_embedding, candidate_embedding, history_embedding], axis=-1
        )
        for unit in self.residual_units:
            hidden = unit(hidden)
        deep_score = self.scoring(hidden).squeeze(axis=-1)
        return self.linear_term(batch) + deep_score
