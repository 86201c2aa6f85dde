"""Tests for the Module/Parameter system: discovery, modes, state dicts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Dropout, Linear, Module, Parameter, Sequential


class _ToyModel(Module):
    def __init__(self):
        super().__init__()
        self.linear = Linear(3, 2, rng=np.random.default_rng(0))
        self.extra = Parameter(np.zeros(4), name="extra")
        self.blocks = [Linear(2, 2, rng=np.random.default_rng(1)), Dropout(0.5, rng=np.random.default_rng(2))]

    def forward(self, x):
        return self.blocks[0](self.linear(x))


class TestParameterDiscovery:
    def test_parameters_found_in_attributes_and_lists(self):
        model = _ToyModel()
        names = dict(model.named_parameters())
        assert "linear.weight" in names
        assert "linear.bias" in names
        assert "extra" in names
        assert "blocks.0.weight" in names
        assert len(model.parameters()) == 5

    def test_num_parameters_counts_scalars(self):
        model = _ToyModel()
        expected = 3 * 2 + 2 + 4 + 2 * 2 + 2
        assert model.num_parameters() == expected

    def test_modules_iterates_children(self):
        model = _ToyModel()
        kinds = {type(m).__name__ for m in model.modules()}
        assert {"_ToyModel", "Linear", "Dropout"} <= kinds

    def test_sequential_exposes_nested_parameters(self):
        seq = Sequential(Linear(2, 2, rng=np.random.default_rng(0)), Linear(2, 1, rng=np.random.default_rng(1)))
        assert len(seq.parameters()) == 4


class TestModes:
    def test_train_and_eval_propagate(self):
        model = _ToyModel()
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_zero_grad_clears_gradients(self):
        model = _ToyModel()
        for parameter in model.parameters():
            parameter.grad = np.ones_like(parameter.data)
        model.zero_grad()
        assert all(parameter.grad is None for parameter in model.parameters())


class TestStateDict:
    def test_roundtrip(self):
        model_a = _ToyModel()
        model_b = _ToyModel()
        # Perturb B so the roundtrip actually changes something.
        for parameter in model_b.parameters():
            parameter.data += 1.0
        model_b.load_state_dict(model_a.state_dict())
        for (name_a, parameter_a), (name_b, parameter_b) in zip(
            model_a.named_parameters(), model_b.named_parameters()
        ):
            assert name_a == name_b
            np.testing.assert_allclose(parameter_a.data, parameter_b.data)

    def test_state_dict_is_a_copy(self):
        model = _ToyModel()
        state = model.state_dict()
        state["extra"][...] = 99.0
        assert not np.allclose(model.state_dict()["extra"], 99.0)

    def test_missing_key_raises(self):
        model = _ToyModel()
        state = model.state_dict()
        del state["extra"]
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_unexpected_key_raises(self):
        model = _ToyModel()
        state = model.state_dict()
        state["bogus"] = np.zeros(1)
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_shape_mismatch_raises(self):
        model = _ToyModel()
        state = model.state_dict()
        state["extra"] = np.zeros(7)
        with pytest.raises(ValueError):
            model.load_state_dict(state)


def test_forward_not_implemented_on_base():
    with pytest.raises(NotImplementedError):
        Module().forward()
