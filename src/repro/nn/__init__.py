"""Neural-network layer library built on :mod:`repro.autograd`.

Provides the module system (parameters, train/eval modes, state dicts), the
layers the SeqFM architecture is composed of (linear, embedding, layer norm,
dropout, maskable self-attention, residual feed-forward blocks), weight
initialisers and the optimisers (SGD, Adam).  The paper's three task losses
(BPR, log loss, squared error) are functions in
:mod:`repro.autograd.functional`, which the task heads call directly.
"""

from repro.nn.module import Module, Parameter
from repro.nn.linear import Linear
from repro.nn.embedding import Embedding
from repro.nn.layers import LayerNorm, Dropout, ReLU, Sequential
from repro.nn.attention import SelfAttention
from repro.nn.feedforward import ResidualFeedForward
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn import init
from repro.nn import kernels

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "Embedding",
    "LayerNorm",
    "Dropout",
    "ReLU",
    "Sequential",
    "SelfAttention",
    "ResidualFeedForward",
    "SGD",
    "Adam",
    "Optimizer",
    "init",
    "kernels",
]
