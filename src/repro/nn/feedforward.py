"""Shared residual feed-forward network (Eq. 15 of the paper).

Each layer computes ``h ← h + ReLU(LN(h) W + b)`` with dropout applied to the
layer output.  The *same* network is shared by the static, dynamic and cross
view representations — sharing is a deliberate design decision of the paper
(Figure 2) and is preserved here; the ablation benchmark also provides a
per-view variant.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor
from repro.nn.layers import Dropout, LayerNorm
from repro.nn.linear import Linear
from repro.nn.module import Module


class ResidualFeedForward(Module):
    """l-layer residual feed-forward block with layer norm and dropout.

    Parameters
    ----------
    dim:
        Feature dimension ``d``; every layer maps R^d → R^d as in Eq. 15.
    num_layers:
        Network depth ``l`` (the paper searches l ∈ {1,...,5}).
    dropout:
        Dropout ratio ρ applied to each layer's residual branch.
    use_residual / use_layer_norm:
        Ablation switches for the "Remove RC" / "Remove LN" rows of Table V.
    rng:
        Generator shared by every layer's weights and dropout masks.
    """

    def __init__(
        self,
        dim: int,
        num_layers: int = 1,
        dropout: float = 0.0,
        use_residual: bool = True,
        use_layer_norm: bool = True,
        *,
        rng: np.random.Generator,
    ):
        super().__init__()
        if num_layers < 1:
            raise ValueError("ResidualFeedForward requires at least one layer")
        self.dim = dim
        self.num_layers = num_layers
        self.use_residual = use_residual
        self.use_layer_norm = use_layer_norm
        self.linears = [Linear(dim, dim, rng=rng) for _ in range(num_layers)]
        self.norms = [LayerNorm(dim) for _ in range(num_layers)]
        self.dropouts = [Dropout(dropout, rng=rng) for _ in range(num_layers)]

    def forward(self, x: Tensor) -> Tensor:
        hidden = x
        for linear, norm, drop in zip(self.linears, self.norms, self.dropouts):
            branch_input = norm(hidden) if self.use_layer_norm else hidden
            branch = drop(linear(branch_input).relu())
            hidden = hidden + branch if self.use_residual else branch
        return hidden

    def __repr__(self) -> str:
        return (
            f"ResidualFeedForward(dim={self.dim}, layers={self.num_layers}, "
            f"residual={self.use_residual}, layer_norm={self.use_layer_norm})"
        )
