"""Shared scaffolding for every baseline model.

All baselines consume the same :class:`~repro.data.features.FeatureBatch` as
SeqFM: indices of the static features (user + candidate object) and the
padded dynamic history with its validity mask.  This base class owns the
embedding tables, the first-order linear term and a handful of helpers
(masked history mean, per-feature embedding stacks) so each baseline file
only contains its distinctive interaction structure.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.data.features import FeatureBatch
from repro.nn.embedding import Embedding
from repro.nn.module import Module, Parameter


class BaselineScorer(Module):
    """Common state for baseline scorers.

    Parameters
    ----------
    static_vocab_size / dynamic_vocab_size:
        Vocabulary sizes of the static and dynamic feature spaces; use the
        values exposed by :class:`~repro.data.features.FeatureEncoder`.
    embed_dim:
        Latent dimension of the feature embeddings.
    seed:
        Seed of the initialisation generator.
    """

    def __init__(
        self,
        static_vocab_size: int,
        dynamic_vocab_size: int,
        embed_dim: int = 32,
        seed: int = 0,
    ):
        super().__init__()
        if static_vocab_size < 1 or dynamic_vocab_size < 1:
            raise ValueError("vocabulary sizes must be positive")
        if embed_dim < 1:
            raise ValueError("embed_dim must be positive")
        self.embed_dim = embed_dim
        self.rng = np.random.default_rng(seed)
        self.static_embedding = Embedding(static_vocab_size, embed_dim, rng=self.rng)
        self.dynamic_embedding = Embedding(dynamic_vocab_size, embed_dim, padding_idx=0, rng=self.rng)
        self.global_bias = Parameter(np.zeros(1), name="bias")
        self.static_linear = Parameter(np.zeros(static_vocab_size), name="w_static")
        self.dynamic_linear = Parameter(np.zeros(dynamic_vocab_size), name="w_dynamic")

    # ------------------------------------------------------------------ #
    # Shared building blocks
    # ------------------------------------------------------------------ #
    def linear_term(self, batch: FeatureBatch) -> Tensor:
        """First-order term w₀ + Σ wᵢ over the non-zero features."""
        static_weights = self.static_linear.gather_rows(batch.static_indices).sum(axis=-1)
        dynamic_weights = self.dynamic_linear.gather_rows(batch.dynamic_indices)
        dynamic_sum = (dynamic_weights * Tensor(batch.dynamic_mask)).sum(axis=-1)
        return self.global_bias + static_weights + dynamic_sum

    def embed_static(self, batch: FeatureBatch) -> Tensor:
        """(batch, n_static, d) embeddings of the static features."""
        return self.static_embedding(batch.static_indices)

    def embed_dynamic(self, batch: FeatureBatch) -> Tensor:
        """(batch, n_dyn, d) embeddings of the history with padding rows zeroed."""
        embedded = self.dynamic_embedding(batch.dynamic_indices)
        return embedded * Tensor(batch.dynamic_mask[..., None])

    def history_mean(self, batch: FeatureBatch) -> Tensor:
        """(batch, d) masked mean of the history embeddings (set-category view)."""
        embedded = self.embed_dynamic(batch)
        counts = np.maximum(batch.dynamic_mask.sum(axis=-1, keepdims=True), 1.0)
        return embedded.sum(axis=-2) / Tensor(counts)

    def all_feature_embeddings(self, batch: FeatureBatch) -> tuple:
        """Stack static + dynamic feature embeddings as one (batch, n, d) tensor.

        Returns ``(embeddings, valid_mask)`` where ``valid_mask`` marks the
        real (non-padding) rows; the set-category FM family interacts over all
        of these features without regard to order.
        """
        static = self.embed_static(batch)
        dynamic = self.embed_dynamic(batch)
        combined = Tensor.concatenate([static, dynamic], axis=-2)
        static_valid = np.ones(batch.static_indices.shape, dtype=np.float64)
        valid = np.concatenate([static_valid, batch.dynamic_mask], axis=-1)
        return combined, valid

    # ------------------------------------------------------------------ #
    # Inference helper shared with SeqFM's interface
    # ------------------------------------------------------------------ #
    def score(self, batch: FeatureBatch) -> np.ndarray:
        """Inference-mode scores as a plain array (no graph construction)."""
        was_training = self.training
        self.eval()
        try:
            with no_grad():
                scores = self.forward(batch).data
        finally:
            self.train(was_training)
        return scores
