"""Tests for the SGD and Adam optimisers and the loss modules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn import SGD, Adam
from repro.nn.module import Parameter


def _quadratic_loss(parameter: Parameter) -> Tensor:
    """Convex quadratic with minimum at (3, -2)."""
    target = Tensor(np.array([3.0, -2.0]))
    diff = parameter - target
    return (diff * diff).sum()


class TestSGD:
    def test_converges_on_quadratic(self):
        parameter = Parameter(np.zeros(2))
        optimizer = SGD([parameter], lr=0.1)
        for _ in range(200):
            optimizer.zero_grad()
            loss = _quadratic_loss(parameter)
            loss.backward()
            optimizer.step()
        np.testing.assert_allclose(parameter.data, [3.0, -2.0], atol=1e-3)

    def test_momentum_accelerates(self):
        plain = Parameter(np.zeros(2))
        momentum = Parameter(np.zeros(2))
        optimizer_plain = SGD([plain], lr=0.01)
        optimizer_momentum = SGD([momentum], lr=0.01, momentum=0.9)
        for _ in range(50):
            for parameter, optimizer in ((plain, optimizer_plain), (momentum, optimizer_momentum)):
                optimizer.zero_grad()
                _quadratic_loss(parameter).backward()
                optimizer.step()
        assert _quadratic_loss(momentum).item() < _quadratic_loss(plain).item()

    def test_weight_decay_shrinks_parameters(self):
        parameter = Parameter(np.array([10.0]))
        optimizer = SGD([parameter], lr=0.1, weight_decay=1.0)
        optimizer.zero_grad()
        (parameter * 0).sum().backward()
        optimizer.step()
        assert abs(parameter.data[0]) < 10.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], lr=-1.0)
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], lr=0.1, momentum=1.5)
        with pytest.raises(ValueError, match="weight_decay"):
            SGD([Parameter(np.zeros(1))], lr=0.1, weight_decay=-0.1)

    def test_skips_parameters_without_grad(self):
        parameter = Parameter(np.array([1.0]))
        optimizer = SGD([parameter], lr=0.1)
        optimizer.step()  # no grad accumulated: must be a no-op
        np.testing.assert_allclose(parameter.data, [1.0])


class TestAdam:
    def test_converges_on_quadratic(self):
        parameter = Parameter(np.zeros(2))
        optimizer = Adam([parameter], lr=0.1)
        for _ in range(300):
            optimizer.zero_grad()
            _quadratic_loss(parameter).backward()
            optimizer.step()
        np.testing.assert_allclose(parameter.data, [3.0, -2.0], atol=1e-2)

    def test_bias_correction_first_step_magnitude(self):
        # With a constant unit gradient the first Adam step is ≈ lr regardless of betas.
        parameter = Parameter(np.array([0.0]))
        optimizer = Adam([parameter], lr=0.5)
        optimizer.zero_grad()
        (parameter * 1.0).sum().backward()
        optimizer.step()
        assert parameter.data[0] == pytest.approx(-0.5, rel=1e-6)

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=0.1, betas=(1.0, 0.999))

    def test_invalid_eps_and_weight_decay(self):
        with pytest.raises(ValueError, match="eps"):
            Adam([Parameter(np.zeros(1))], lr=0.1, eps=0.0)
        with pytest.raises(ValueError, match="eps"):
            Adam([Parameter(np.zeros(1))], lr=0.1, eps=-1e-8)
        with pytest.raises(ValueError, match="weight_decay"):
            Adam([Parameter(np.zeros(1))], lr=0.1, weight_decay=-0.01)

    def test_weight_decay_applied(self):
        parameter = Parameter(np.array([5.0]))
        optimizer = Adam([parameter], lr=0.1, weight_decay=0.5)
        optimizer.zero_grad()
        (parameter * 0).sum().backward()
        optimizer.step()
        assert parameter.data[0] < 5.0

