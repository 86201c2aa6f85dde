"""Unit tests for the autograd Tensor: every primitive op is gradient-checked
against central finite differences and the graph mechanics are exercised."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients, no_grad
from repro.autograd.tensor import _unbroadcast


def _tensors(rng, *shapes):
    return [Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes]


class TestBasics:
    def test_construction_from_list(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.data.dtype == np.float64

    def test_item_on_scalar(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)

    def test_item_requires_scalar_like(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).item()

    def test_detach_shares_data_but_no_grad(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert d.data is t.data

    def test_repr_mentions_shape(self):
        assert "shape=(2,)" in repr(Tensor([1.0, 2.0]))

    def test_zeros_ones_constructors(self):
        assert np.all(Tensor.zeros((2, 3)).data == 0)
        assert np.all(Tensor.ones((2, 3)).data == 1)

    def test_len(self):
        assert len(Tensor([[1.0], [2.0], [3.0]])) == 3


class TestBackwardMechanics:
    def test_backward_requires_grad(self):
        t = Tensor([1.0])
        with pytest.raises(RuntimeError):
            t.backward()

    def test_backward_requires_scalar_without_grad_argument(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_gradient_accumulates_over_multiple_uses(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 3 + x * 4  # dy/dx = 7
        y.backward()
        assert x.grad == pytest.approx([7.0])

    def test_backward_with_explicit_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2
        y.backward(np.array([1.0, 10.0]))
        np.testing.assert_allclose(x.grad, [2.0, 20.0])

    def test_no_grad_disables_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad

    def test_graph_is_not_built_for_non_grad_inputs(self):
        x = Tensor([1.0])
        y = x * 2 + 3
        assert not y.requires_grad

    def test_diamond_graph_gradient(self):
        # z = (x*2) + (x*3); both branches share x.
        x = Tensor(np.array([1.5]), requires_grad=True)
        a = x * 2
        b = x * 3
        z = (a * b).sum()  # z = 6x², dz/dx = 12x
        z.backward()
        assert x.grad == pytest.approx([12 * 1.5])

    def test_second_backward_on_the_same_graph_does_not_double_count(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        y = w * 3
        loss = (y * y).sum()
        loss.backward()
        np.testing.assert_allclose(w.grad, [18.0, 36.0])
        loss.backward()  # leaves accumulate; interior grads were released, not re-propagated
        np.testing.assert_allclose(w.grad, [36.0, 72.0])


class TestGradientOwnership:
    """Interior grads travel by reference and are released; leaves own theirs."""

    def test_leaf_grads_fed_by_one_upstream_array_do_not_alias(self, rng):
        a, b = _tensors(rng, (3, 4), (3, 4))
        (a + b).sum().backward()
        assert not np.shares_memory(a.grad, b.grad)
        a.grad *= 0.0
        np.testing.assert_allclose(b.grad, np.ones((3, 4)))

    def test_leaf_grad_does_not_alias_the_seed_gradient(self, rng):
        (a,) = _tensors(rng, (2, 6))
        seed = np.ones((3, 4))
        a.reshape(3, 4).backward(seed)
        assert not np.shares_memory(a.grad, seed)
        a.grad += 1.0
        np.testing.assert_allclose(seed, np.ones((3, 4)))

    def test_interior_grads_are_released_after_the_sweep(self, rng):
        a, b = _tensors(rng, (3, 4), (4, 2))
        hidden = a @ b
        twice = hidden + hidden  # two contributions: the sum is a new array, nothing written in place
        out = (twice * twice).sum()
        out.backward()
        assert hidden.grad is None and twice.grad is None and out.grad is None
        assert a.grad is not None and b.grad is not None

    def test_second_contribution_leaves_the_first_array_untouched(self, rng):
        (a,) = _tensors(rng, (3,))
        hidden = a * 2.0
        seed = np.array([1.0, 2.0, 3.0])
        Tensor.stack([hidden, hidden], axis=0).sum(axis=0).backward(seed)
        np.testing.assert_allclose(seed, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(a.grad, 4.0 * seed)

    @pytest.mark.parametrize("through_gather", [False, True])
    def test_leaf_reuses_its_gradient_array_across_zero_grad(self, rng, through_gather):
        (table,) = _tensors(rng, (5, 3))
        rows = np.array([4, 1, 4])

        def loss(scale):
            picked = table.gather_rows(rows) if through_gather else table[1:4]
            return (picked * scale).sum()

        loss(2.0).backward()
        first, first_values = table.grad, table.grad.copy()
        table.zero_grad()
        assert table.grad is None
        loss(3.0).backward()
        assert table.grad is first  # the same memory, rewritten rather than added to
        np.testing.assert_allclose(table.grad, 1.5 * first_values)

    def test_reused_gradient_arrays_stay_private_to_their_leaf(self, rng):
        a, b = _tensors(rng, (3, 4), (3, 4))
        for _ in range(2):
            (a + b).sum().backward()
            assert not np.shares_memory(a.grad, b.grad)
            a.zero_grad()
            b.zero_grad()


class TestArithmeticGradients:
    def test_add(self, rng):
        a, b = _tensors(rng, (3, 4), (3, 4))
        check_gradients(lambda ts: (ts[0] + ts[1]).sum(), [a, b])

    def test_add_broadcast(self, rng):
        a, b = _tensors(rng, (3, 4), (4,))
        check_gradients(lambda ts: (ts[0] + ts[1]).sum(), [a, b])

    def test_radd_scalar(self, rng):
        (a,) = _tensors(rng, (3,))
        check_gradients(lambda ts: (2.0 + ts[0]).sum(), [a])

    def test_sub(self, rng):
        a, b = _tensors(rng, (2, 3), (2, 3))
        check_gradients(lambda ts: (ts[0] - ts[1]).sum(), [a, b])

    def test_rsub(self, rng):
        (a,) = _tensors(rng, (3,))
        check_gradients(lambda ts: (1.0 - ts[0]).sum(), [a])

    def test_mul(self, rng):
        a, b = _tensors(rng, (2, 3), (2, 3))
        check_gradients(lambda ts: (ts[0] * ts[1]).sum(), [a, b])

    def test_mul_broadcast_scalar_tensor(self, rng):
        a, b = _tensors(rng, (2, 3), (1,))
        check_gradients(lambda ts: (ts[0] * ts[1]).sum(), [a, b])

    def test_div(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.uniform(1.0, 2.0, size=(2, 3)), requires_grad=True)
        check_gradients(lambda ts: (ts[0] / ts[1]).sum(), [a, b])

    def test_rtruediv(self, rng):
        a = Tensor(rng.uniform(1.0, 2.0, size=(3,)), requires_grad=True)
        check_gradients(lambda ts: (1.0 / ts[0]).sum(), [a])

    def test_neg(self, rng):
        (a,) = _tensors(rng, (4,))
        check_gradients(lambda ts: (-ts[0]).sum(), [a])

    def test_pow(self, rng):
        a = Tensor(rng.uniform(0.5, 2.0, size=(3,)), requires_grad=True)
        check_gradients(lambda ts: (ts[0] ** 3).sum(), [a])

    def test_pow_requires_scalar_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** np.array([1.0, 2.0])

    def test_sqrt(self, rng):
        a = Tensor(rng.uniform(0.5, 2.0, size=(3,)), requires_grad=True)
        check_gradients(lambda ts: ts[0].sqrt().sum(), [a])

    def test_abs(self, rng):
        a = Tensor(rng.uniform(0.5, 2.0, size=(3,)), requires_grad=True)
        check_gradients(lambda ts: ts[0].abs().sum(), [a])


# (B,n,d)@(d,d), (n,d)@(d,d), (B,m,n)@(B,n,d), broadcast-left, 4-D left, and the 1-D rules.
MATMUL_SHAPES = [
    ((5, 3, 4), (4, 4)), ((3, 4), (4, 4)), ((2, 3, 4), (2, 4, 5)), ((1, 3, 4), (2, 4, 5)),
    ((3, 4), (2, 4, 5)), ((2, 3, 2, 4), (4, 3)), ((4,), (4, 3)), ((3, 4), (4,)), ((5,), (5,)),
    ((2, 3, 4), (4,)), ((4,), (2, 4, 3)),
]


def _reference_matmul_grads(a, b, grad):
    """The rule the flattened GEMMs replaced: batched products, broadcast axes summed afterwards."""
    if a.ndim == 1 and b.ndim == 1:
        return grad * b, grad * a
    if a.ndim == 1:
        grad_a, grad_b = (grad[..., None, :] * b).sum(axis=-1), a[..., :, None] * grad[..., None, :]
    elif b.ndim == 1:
        grad_a, grad_b = grad[..., :, None] * b, a * grad[..., :, None]
    else:
        grad_a, grad_b = grad @ np.swapaxes(b, -1, -2), np.swapaxes(a, -1, -2) @ grad
    return _unbroadcast(grad_a, a.shape), _unbroadcast(grad_b, b.shape)


class TestMatmulGradients:
    def test_matmul_2d(self, rng):
        a, b = _tensors(rng, (3, 4), (4, 2))
        check_gradients(lambda ts: (ts[0] @ ts[1]).sum(), [a, b])

    def test_matmul_batched(self, rng):
        a, b = _tensors(rng, (2, 3, 4), (2, 4, 5))
        check_gradients(lambda ts: (ts[0] @ ts[1]).sum(), [a, b])

    def test_matmul_batched_against_unbatched(self, rng):
        a, b = _tensors(rng, (2, 3, 4), (4, 5))
        check_gradients(lambda ts: (ts[0] @ ts[1]).sum(), [a, b])

    def test_matvec(self, rng):
        a, b = _tensors(rng, (3, 4), (4,))
        check_gradients(lambda ts: (ts[0] @ ts[1]).sum(), [a, b])

    def test_vecmat(self, rng):
        a, b = _tensors(rng, (4,), (4, 3))
        check_gradients(lambda ts: (ts[0] @ ts[1]).sum(), [a, b])

    def test_inner_product(self, rng):
        a, b = _tensors(rng, (5,), (5,))
        check_gradients(lambda ts: ts[0].dot(ts[1]), [a, b])

    def test_batched_matvec(self, rng):
        a, b = _tensors(rng, (2, 3, 4), (4,))
        check_gradients(lambda ts: (ts[0] @ ts[1]).sum(), [a, b])

    @pytest.mark.parametrize("shape_a, shape_b", MATMUL_SHAPES)
    def test_backward_matches_the_batched_reference(self, rng, shape_a, shape_b):
        a, b = _tensors(rng, shape_a, shape_b)
        out = a @ b
        upstream = rng.normal(size=out.shape)
        out.backward(upstream)
        grad_a, grad_b = _reference_matmul_grads(a.data, b.data, upstream)
        np.testing.assert_allclose(a.grad, grad_a, rtol=0, atol=1e-12)
        np.testing.assert_allclose(b.grad, grad_b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape_a, shape_b", MATMUL_SHAPES)
    def test_weighted_output_gradient_check(self, rng, shape_a, shape_b):
        a, b = _tensors(rng, shape_a, shape_b)
        weights = rng.normal(size=(a.data @ b.data).shape)
        check_gradients(lambda ts: ((ts[0] @ ts[1]) * weights).sum(), [a, b])

    @pytest.mark.parametrize("shape_a, shape_b", [((2, 3, 4), (4, 5)), ((2, 3, 4), (2, 4, 5))])
    def test_only_the_side_that_requires_grad_gets_one(self, rng, shape_a, shape_b):
        for grad_on_a in (True, False):
            a = Tensor(rng.normal(size=shape_a), requires_grad=grad_on_a)
            b = Tensor(rng.normal(size=shape_b), requires_grad=not grad_on_a)
            upstream = rng.normal(size=(a.data @ b.data).shape)
            (a @ b).backward(upstream)
            wanted, skipped = (a, b) if grad_on_a else (b, a)
            assert skipped.grad is None
            reference = _reference_matmul_grads(a.data, b.data, upstream)[0 if grad_on_a else 1]
            np.testing.assert_allclose(wanted.grad, reference, rtol=0, atol=1e-12)

    def test_matmul_values(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose((a @ b).data, a.data)


class TestShapeOps:
    def test_transpose(self, rng):
        (a,) = _tensors(rng, (2, 3, 4))
        check_gradients(lambda ts: ts[0].transpose(2, 0, 1).sum(), [a])

    def test_transpose_default_reverses(self, rng):
        a = Tensor(rng.normal(size=(2, 3)))
        assert a.T.shape == (3, 2)

    def test_swapaxes(self, rng):
        (a,) = _tensors(rng, (2, 3, 4))
        check_gradients(lambda ts: (ts[0].swapaxes(1, 2) * 2).sum(), [a])

    def test_reshape(self, rng):
        (a,) = _tensors(rng, (2, 6))
        check_gradients(lambda ts: (ts[0].reshape(3, 4) ** 2).sum(), [a])

    def test_reshape_accepts_tuple(self, rng):
        a = Tensor(rng.normal(size=(2, 6)))
        assert a.reshape((4, 3)).shape == (4, 3)

    def test_expand_dims_and_squeeze(self, rng):
        (a,) = _tensors(rng, (3, 4))
        check_gradients(lambda ts: (ts[0].expand_dims(1).squeeze(1) * 3).sum(), [a])

    def test_getitem_slice(self, rng):
        (a,) = _tensors(rng, (4, 5))
        check_gradients(lambda ts: (ts[0][1:3, :] ** 2).sum(), [a])

    def test_getitem_fancy_rows(self, rng):
        (a,) = _tensors(rng, (5, 3))
        index = np.array([0, 2, 2, 4])
        check_gradients(lambda ts: (ts[0][index] ** 2).sum(), [a])

    def test_getitem_axis1_fancy(self, rng):
        (a,) = _tensors(rng, (3, 5, 2))
        index = np.array([0, 1, 1, 4])
        check_gradients(lambda ts: (ts[0][:, index, :] ** 2).sum(), [a])

    def test_gather_rows_duplicates_accumulate(self, rng):
        table = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        indices = np.array([[0, 1], [1, 1]])
        out = table.gather_rows(indices)
        assert out.shape == (2, 2, 3)
        out.sum().backward()
        # Row 1 appears three times, row 0 once, rows 2/3 never.
        np.testing.assert_allclose(table.grad[0], np.ones(3))
        np.testing.assert_allclose(table.grad[1], 3 * np.ones(3))
        np.testing.assert_allclose(table.grad[2], np.zeros(3))

    def test_gather_rows_gradient_check(self, rng):
        table = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        indices = np.array([1, 5, 1, 0])
        check_gradients(lambda ts: (ts[0].gather_rows(indices) ** 2).sum(), [table])


# duplicates, 2-D, negatives beside their positive twins (-1 == 5, -6 == 0), empty 1-D and 2-D
GATHER_INDICES = [
    np.array([1, 5, 1, 0]), np.array([[0, 1], [1, 1]]), np.array([-1, 5, -6, 0, 2, -1]),
    np.zeros((0,), dtype=np.int64), np.zeros((2, 0), dtype=np.int64),
]
# the first four select no element twice; the rest can
GETITEM_INDICES = [
    (slice(1, 3), slice(None)), 0, (Ellipsis, -1), (None, 1),
    np.array([0, 2, 2, -1]), [0, 0, 1], (slice(None), np.array([0, 1, 1, -1])),
    (np.array([0, 0, 3]), np.array([1, 1, 2])), np.arange(6) % 2 == 0,
]


def _reference_scatter(shape, index, grad):
    """The rule the segment sum replaced: ``np.add.at`` into a dense zero table."""
    full = np.zeros(shape)
    np.add.at(full, index, grad)
    return full


class TestScatterBackward:
    @pytest.mark.parametrize("indices", GATHER_INDICES)
    @pytest.mark.parametrize("row_shape", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("interior", [False, True])
    def test_gather_rows_matches_add_at(self, rng, indices, row_shape, interior):
        table = Tensor(rng.normal(size=(6,) + row_shape), requires_grad=True)
        source = table * 1.0 if interior else table
        first, second = rng.normal(size=(2,) + indices.shape + row_shape)
        # Two gathers of one table: the second lands on a gradient that already exists.
        (source.gather_rows(indices) * first).sum().backward()
        (source.gather_rows(indices[::-1]) * second).sum().backward()
        expected = (_reference_scatter(table.shape, indices, first)
                    + _reference_scatter(table.shape, indices[::-1], second))
        np.testing.assert_allclose(table.grad, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("indices", GATHER_INDICES)
    def test_gather_rows_gradient_check(self, rng, indices):
        (table,) = _tensors(rng, (6, 3))
        weights = rng.normal(size=indices.shape + (3,))
        check_gradients(lambda ts: ((ts[0] * 2.0).gather_rows(indices) * weights).sum(), [table])

    def test_negative_index_lands_on_its_positive_twin(self, rng):
        (table,) = _tensors(rng, (4, 2))
        table.gather_rows(np.array([-1, 3, -4])).sum().backward()
        np.testing.assert_allclose(table.grad, [[1, 1], [0, 0], [0, 0], [2, 2]])

    @pytest.mark.parametrize("index", GETITEM_INDICES, ids=repr)
    def test_getitem_matches_add_at(self, rng, index):
        (a,) = _tensors(rng, (6, 4))
        out = a[index]
        upstream = rng.normal(size=out.shape)
        out.backward(upstream)
        np.testing.assert_allclose(a.grad, _reference_scatter(a.shape, index, upstream), rtol=0, atol=1e-12)
        weights = rng.normal(size=out.shape)
        check_gradients(lambda ts: (ts[0][index] * weights).sum(), [a])


class TestReductions:
    def test_sum_all(self, rng):
        (a,) = _tensors(rng, (3, 4))
        check_gradients(lambda ts: ts[0].sum(), [a])

    def test_sum_axis(self, rng):
        (a,) = _tensors(rng, (3, 4))
        check_gradients(lambda ts: (ts[0].sum(axis=0) ** 2).sum(), [a])

    def test_sum_axis_keepdims(self, rng):
        (a,) = _tensors(rng, (3, 4))
        check_gradients(lambda ts: (ts[0].sum(axis=1, keepdims=True) ** 2).sum(), [a])

    def test_sum_negative_axis(self, rng):
        (a,) = _tensors(rng, (2, 3, 4))
        check_gradients(lambda ts: (ts[0].sum(axis=-1) ** 2).sum(), [a])

    def test_mean(self, rng):
        (a,) = _tensors(rng, (3, 4))
        check_gradients(lambda ts: (ts[0].mean(axis=1) ** 2).sum(), [a])

    def test_mean_matches_numpy(self, rng):
        a = Tensor(rng.normal(size=(3, 4)))
        np.testing.assert_allclose(a.mean(axis=0).data, a.data.mean(axis=0))

    def test_max_gradient_flows_to_argmax(self):
        a = Tensor(np.array([[1.0, 5.0, 2.0]]), requires_grad=True)
        a.max(axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, [[0.0, 1.0, 0.0]])

    def test_max_ties_split_gradient(self):
        a = Tensor(np.array([[2.0, 2.0]]), requires_grad=True)
        a.max(axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, [[0.5, 0.5]])


class TestNonlinearities:
    def test_exp(self, rng):
        (a,) = _tensors(rng, (3,))
        check_gradients(lambda ts: ts[0].exp().sum(), [a])

    def test_log(self, rng):
        a = Tensor(rng.uniform(0.5, 2.0, size=(3,)), requires_grad=True)
        check_gradients(lambda ts: ts[0].log().sum(), [a])

    def test_relu_gradient(self, rng):
        a = Tensor(np.array([-1.0, 0.5, 2.0]), requires_grad=True)
        a.relu().sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 1.0])

    def test_sigmoid(self, rng):
        (a,) = _tensors(rng, (4,))
        check_gradients(lambda ts: ts[0].sigmoid().sum(), [a])

    def test_sigmoid_extreme_values_do_not_overflow(self):
        values = Tensor([1000.0, -1000.0]).sigmoid().data
        np.testing.assert_allclose(values, [1.0, 0.0], atol=1e-12)

    def test_tanh(self, rng):
        (a,) = _tensors(rng, (4,))
        check_gradients(lambda ts: ts[0].tanh().sum(), [a])


class TestCombinators:
    def test_concatenate_axis0(self, rng):
        a, b = _tensors(rng, (2, 3), (4, 3))
        check_gradients(lambda ts: (Tensor.concatenate([ts[0], ts[1]], axis=0) ** 2).sum(), [a, b])

    def test_concatenate_axis_last(self, rng):
        a, b = _tensors(rng, (2, 3), (2, 5))
        check_gradients(lambda ts: (Tensor.concatenate([ts[0], ts[1]], axis=-1) ** 2).sum(), [a, b])

    def test_stack(self, rng):
        a, b = _tensors(rng, (2, 3), (2, 3))
        check_gradients(lambda ts: (Tensor.stack([ts[0], ts[1]], axis=0) ** 2).sum(), [a, b])

    def test_where(self, rng):
        a, b = _tensors(rng, (3, 4), (3, 4))
        condition = rng.random((3, 4)) > 0.5
        check_gradients(lambda ts: (Tensor.where(condition, ts[0], ts[1]) ** 2).sum(), [a, b])

    def test_where_values(self):
        out = Tensor.where(np.array([True, False]), Tensor([1.0, 1.0]), Tensor([2.0, 2.0]))
        np.testing.assert_allclose(out.data, [1.0, 2.0])
