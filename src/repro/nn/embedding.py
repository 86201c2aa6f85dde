"""Embedding table with sparse-gradient row lookups.

The embedding layer is the counterpart of the paper's embedding matrices
``M°`` and ``M˙`` (Eq. 5): it maps the index of a non-zero one-hot feature to
its dense d-dimensional representation.  Looking rows up by index is
mathematically identical to the one-hot × matrix product in the paper but
avoids materialising the sparse one-hot vectors.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.nn import init
from repro.nn.module import Module, Parameter


class Embedding(Module):
    """Lookup table mapping integer feature indices to dense vectors.

    Parameters
    ----------
    num_embeddings:
        Vocabulary size (number of distinct sparse features in the view).
    embedding_dim:
        The latent dimension ``d`` of the paper.
    padding_idx:
        Optional index whose embedding is pinned to the zero vector.  The
        dynamic-view padding rows of the paper ("repeatedly add a padding
        vector {0}^{1×m}") map to this index.
    rng:
        Generator the table is drawn from; pass the model-level generator so
        runs are reproducible.
    """

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        padding_idx: Optional[int] = None,
        *,
        rng: np.random.Generator,
        std: float = 0.05,
    ):
        super().__init__()
        if num_embeddings <= 0 or embedding_dim <= 0:
            raise ValueError("Embedding dimensions must be positive")
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.padding_idx = padding_idx
        table = init.embedding_normal((num_embeddings, embedding_dim), rng, std=std)
        if padding_idx is not None:
            if not 0 <= padding_idx < num_embeddings:
                raise ValueError("padding_idx out of range")
            table[padding_idx] = 0.0
        self.weight = Parameter(table, name="embedding")

    def forward(self, indices: np.ndarray) -> Tensor:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding index out of range [0, {self.num_embeddings}): "
                f"min={indices.min()}, max={indices.max()}"
            )
        return F.embedding_lookup(self.weight, indices)

    def reset_padding(self) -> None:
        """Re-zero the padding row (call after optimiser steps if desired)."""
        if self.padding_idx is not None:
            self.weight.data[self.padding_idx] = 0.0

    def __repr__(self) -> str:
        return (
            f"Embedding(num={self.num_embeddings}, dim={self.embedding_dim}, "
            f"padding_idx={self.padding_idx})"
        )
