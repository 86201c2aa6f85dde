"""Reverse-mode automatic differentiation on NumPy arrays.

This subpackage is the deep-learning substrate of the reproduction.  The
original SeqFM paper was implemented on top of TensorFlow/PyTorch; this
environment has neither, so the same functionality — tensors that record the
operations applied to them and can back-propagate gradients — is implemented
from scratch here.

The public surface mirrors the small subset of a framework that the paper's
model actually needs:

* :class:`~repro.autograd.tensor.Tensor` — an n-dimensional array that tracks
  its computation graph and exposes ``backward()``.
* :mod:`repro.autograd.functional` — differentiable building blocks used by
  the neural-network layer library (softmax, relu, sigmoid, dropout, masked
  attention scores, embedding gather, losses, ...).
* :func:`~repro.autograd.grad_check.check_gradients` — a finite-difference
  gradient checker used by the test suite to certify the engine.
"""

from repro.autograd.tensor import Tensor, no_grad, is_grad_enabled
from repro.autograd import functional
from repro.autograd.grad_check import check_gradients, numerical_gradient

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "functional",
    "check_gradients",
    "numerical_gradient",
]
