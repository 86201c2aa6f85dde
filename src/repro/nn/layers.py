"""Common layers: layer normalisation, dropout, activation and containers."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.nn.module import Module, Parameter


def layer_norm(x: Tensor, scale: Tensor, bias: Tensor, eps: float = 1e-8) -> Tensor:
    """Layer normalisation over the last axis, Eq. (16) of the paper, as one
    graph node.

    ``LN(h) = s ⊙ (h - μ) / σ + b`` where μ, σ are the mean and standard
    deviation of the elements of ``h`` along the feature axis.  The means are
    sums times ``1/d`` and the centred rows are divided by σ, so the forward
    is bitwise that of the ``Tensor`` composition it replaces;
    :func:`repro.nn.kernels.layer_norm` takes its means as a GEMV instead.
    """
    inverse_dim = 1.0 / x.shape[-1]
    centred = x.data - x.data.sum(axis=-1, keepdims=True) * inverse_dim
    variance = (centred * centred).sum(axis=-1, keepdims=True) * inverse_dim
    sigma = (variance + eps) ** 0.5
    normalised = centred / sigma
    out = normalised * scale.data + bias.data

    def backward(grad: np.ndarray) -> None:
        if bias.requires_grad:
            bias._accumulate(grad)
        if scale.requires_grad:
            scale._accumulate(grad * normalised)
        if x.requires_grad:
            d_normalised = grad * scale.data
            d_centred = (d_normalised - normalised * (d_normalised * normalised).sum(
                axis=-1, keepdims=True) * inverse_dim) / sigma
            x._accumulate(d_centred - d_centred.sum(axis=-1, keepdims=True) * inverse_dim)

    return Tensor._make(out, (x, scale, bias), backward)


class LayerNorm(Module):
    """Layer normalisation over the last axis (Eq. 16 of the paper).

    Each sample is normalised with its own mean/variance — unlike batch
    normalisation no cross-sample statistics are used, so training and test
    computation are identical.
    """

    def __init__(self, dim: int, eps: float = 1e-8):
        super().__init__()
        if dim <= 0:
            raise ValueError("LayerNorm dim must be positive")
        self.dim = dim
        self.eps = eps
        self.scale = Parameter(np.ones(dim), name="ln_scale")
        self.bias = Parameter(np.zeros(dim), name="ln_bias")

    def forward(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.scale, self.bias, eps=self.eps)

    def __repr__(self) -> str:
        return f"LayerNorm(dim={self.dim})"


class Dropout(Module):
    """Inverted dropout with ratio ρ (Section III-F of the paper)."""

    def __init__(self, ratio: float, rng: np.random.Generator):
        super().__init__()
        if not 0.0 <= ratio < 1.0:
            raise ValueError(f"dropout ratio must be in [0, 1), got {ratio}")
        self.ratio = ratio
        self.rng = rng

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.ratio, training=self.training, rng=self.rng)

    def __repr__(self) -> str:
        return f"Dropout(ratio={self.ratio})"


class ReLU(Module):
    """Rectified linear unit as a module (for use inside Sequential)."""

    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)

    def __repr__(self) -> str:
        return "ReLU()"


class Sequential(Module):
    """Run submodules in order, feeding each output into the next."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def append(self, layer: Module) -> None:
        self.layers.append(layer)

    def __iter__(self) -> Iterable[Module]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def __repr__(self) -> str:
        inner = ", ".join(repr(layer) for layer in self.layers)
        return f"Sequential({inner})"
