"""A reverse-mode automatic-differentiation tensor built on NumPy.

The design follows the classic tape-free "define-by-run" approach: every
operation on :class:`Tensor` objects creates a new tensor that remembers its
parents and a closure computing the local vector-Jacobian product.  Calling
:meth:`Tensor.backward` on a scalar output performs a topological sort of the
graph and accumulates gradients into every tensor created with
``requires_grad=True``.

Only the operations that the SeqFM model family needs are implemented, but
each is implemented with full broadcasting support so the neural-network
layers in :mod:`repro.nn` can be written naturally.

Gradient ownership: an interior node (one with a ``_backward_fn``) keeps its
first gradient contribution by reference, allocates a sum only when a second
arrives, and drops ``.grad`` once :meth:`Tensor.backward` has propagated it --
so a backward closure may pass on the array it received but must never write to
it.  A leaf copies its first contribution into an array of its own and adds
later ones in place; ``zero_grad`` clears ``.grad`` but the leaf keeps the array
for the next step, so a gradient read before ``zero_grad`` is valid until the
next backward pass writes it -- copy it to keep it.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    """Return whether gradient tracking is currently enabled."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction.

    Used during evaluation so forward passes neither allocate backward
    closures nor retain references to intermediate arrays.
    """
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` back down to ``shape`` after NumPy broadcasting.

    When a tensor of shape ``shape`` was broadcast up to ``grad.shape`` during
    the forward pass, its gradient is the sum of ``grad`` over the broadcast
    axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _scatter_add(table: np.ndarray, index: np.ndarray, values: np.ndarray) -> None:
    """``table[index] += values`` over first-axis rows, duplicates summed in arrival
    order: a stable argsort + ``np.add.reduceat`` segment sum writes each row once."""
    if index.size == 0:
        return
    index = np.where(index < 0, index + len(table), index).reshape(-1)
    order = np.argsort(index, kind="stable")
    index = index[order]
    starts = np.flatnonzero(np.r_[True, index[1:] != index[:-1]])
    values = values.reshape((index.size,) + table.shape[1:])
    table[index[starts]] += np.add.reduceat(values[order], starts, axis=0)


def _as_array(value: ArrayLike, dtype=np.float64) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=dtype)


def as_tensor(value: ArrayLike) -> "Tensor":
    """Coerce ``value`` into a :class:`Tensor` without copying when possible."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


class Tensor:
    """An n-dimensional array with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Anything convertible to a ``numpy.ndarray`` of ``float64``.
    requires_grad:
        When ``True`` the tensor accumulates gradients into :attr:`grad`
        during :meth:`backward`.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "name", "_grad_buffer")

    __array_priority__ = 100  # ensure ndarray.__add__(Tensor) defers to Tensor

    def __init__(self, data: ArrayLike, requires_grad: bool = False, name: str = ""):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple = ()
        self._backward_fn: Optional[Callable[[np.ndarray], None]] = None
        self.name = name
        self._grad_buffer: Optional[np.ndarray] = None  # a leaf's gradient memory, kept across zero_grad

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def item(self) -> float:
        return float(self.data.item())

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{grad_flag}{label})"

    # ------------------------------------------------------------------ #
    # Graph construction helper
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward_fn: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create an output tensor wired into the computation graph."""
        requires_grad = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires_grad)
        if requires_grad:
            out._parents = tuple(parents)
            out._backward_fn = backward_fn
        return out

    def _own_grad(self) -> np.ndarray:
        """Install and return the gradient array this leaf owns.  It is allocated
        once and reused after every ``zero_grad``: a step then frees nothing that
        outlived its graph, and the allocator keeps the step's memory mapped."""
        if self._grad_buffer is None:
            self._grad_buffer = np.empty_like(self.data)
        self.grad = self._grad_buffer
        return self.grad

    def _accumulate(self, grad: np.ndarray) -> None:
        """Accumulate a gradient contribution into this tensor."""
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self._backward_fn is not None:  # interior: by reference, never written in place
            self.grad = grad if self.grad is None else self.grad + grad
        elif self.grad is None:  # leaf: owns its gradient
            np.copyto(self._own_grad(), grad)
        else:
            self.grad += grad

    # ------------------------------------------------------------------ #
    # Backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Back-propagate gradients from this tensor through the graph.

        Parameters
        ----------
        grad:
            Upstream gradient.  Defaults to ``1`` which is only valid for a
            scalar tensor (the usual loss case).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without an explicit gradient requires a scalar tensor")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).astype(self.data.dtype)

        # Topological order of the reachable subgraph.
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(order):
            if node._backward_fn is None or node.grad is None:
                continue
            # Propagated once, then released: a second backward() starts clean.
            grad, node.grad = node.grad, None
            node._backward_fn(grad)

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(grad)

        return Tensor._make(out_data, (self, other), backward)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        out_data = -self.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor._make(out_data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(-grad)

        return Tensor._make(out_data, (self, other), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * other.data)
            other._accumulate(grad * self.data)

        return Tensor._make(out_data, (self, other), backward)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / other.data)
            other._accumulate(-grad * self.data / (other.data ** 2))

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Matrix operations
    # ------------------------------------------------------------------ #
    def matmul(self, other: ArrayLike) -> "Tensor":
        """Matrix product with full batched-matmul gradient support."""
        other = as_tensor(other)
        out_data = self.data @ other.data
        a, b = self.data, other.data

        def backward(grad: np.ndarray) -> None:
            if a.ndim == 1 and b.ndim == 1:
                # inner product
                self._accumulate(grad * b)
                other._accumulate(grad * a)
                return
            if a.ndim == 1:
                # (k,) @ (..., k, n) -> (..., n)
                grad_a = (grad[..., None, :] * b).sum(axis=-1)
                grad_b = a[..., :, None] * grad[..., None, :]
                self._accumulate(grad_a)
                other._accumulate(grad_b)
                return
            if b.ndim == 1:
                # (..., m, k) @ (k,) -> (..., m)
                grad_a = grad[..., :, None] * b
                grad_b = (a * grad[..., :, None]).sum(axis=tuple(range(a.ndim - 1)))
                self._accumulate(grad_a)
                other._accumulate(grad_b)
                return
            if b.ndim == 2:
                # (..., m, k) @ (k, n): the leading axes are more rows of one GEMM.
                rows = grad.reshape(-1, b.shape[1])
                if self.requires_grad:
                    self._accumulate((rows @ b.T).reshape(a.shape))
                if other.requires_grad:
                    other._accumulate(a.reshape(-1, b.shape[0]).T @ rows)
                return
            if self.requires_grad:
                self._accumulate(grad @ np.swapaxes(b, -1, -2))
            if other.requires_grad:
                other._accumulate(np.swapaxes(a, -1, -2) @ grad)

        return Tensor._make(out_data, (self, other), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return self.matmul(other)

    def dot(self, other: ArrayLike) -> "Tensor":
        """Vector dot product (alias of :meth:`matmul` for 1-D operands)."""
        return self.matmul(other)

    def transpose(self, *axes: int) -> "Tensor":
        """Permute axes; with no arguments reverses all axes."""
        axes_tuple = axes if axes else tuple(reversed(range(self.data.ndim)))
        out_data = np.transpose(self.data, axes_tuple)
        inverse = np.argsort(axes_tuple)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.transpose(grad, inverse))

        return Tensor._make(out_data, (self,), backward)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        out_data = np.swapaxes(self.data, axis1, axis2)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.swapaxes(grad, axis1, axis2))

        return Tensor._make(out_data, (self,), backward)

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original_shape = self.data.shape
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original_shape))

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        input_shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % len(input_shape) for a in axes)
                for a in sorted(axes):
                    g = np.expand_dims(g, a)
            self._accumulate(np.broadcast_to(g, input_shape))

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        input_shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            g = grad
            out = out_data
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % len(input_shape) for a in axes)
                for a in sorted(axes):
                    g = np.expand_dims(g, a)
                    out = np.expand_dims(out, a)
            mask = (self.data == out).astype(self.data.dtype)
            # Distribute the gradient evenly among ties to keep the Jacobian
            # a valid sub-gradient of the max.
            normaliser = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(np.broadcast_to(g, input_shape) * mask / normaliser)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Elementwise non-linearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self.__pow__(0.5)

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.sign(self.data))

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        out_data = np.maximum(self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (self.data > 0))

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data ** 2))

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Indexing and shaping
    # ------------------------------------------------------------------ #
    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]
        input_shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            full = np.zeros(input_shape, dtype=self.data.dtype)
            items = index if isinstance(index, tuple) else (index,)
            if all(i is None or i is Ellipsis or isinstance(i, (int, np.integer, slice)) for i in items):
                full[index] = grad  # a basic index selects no element twice
            else:
                _scatter_add(full.reshape(-1), np.arange(full.size).reshape(input_shape)[index], grad)
            self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    def gather_rows(self, indices: np.ndarray) -> "Tensor":
        """Embedding-style row gather: returns ``self[indices]`` where ``indices``
        may be any integer array; gradients scatter-add back into the rows."""
        indices = np.asarray(indices)
        out_data = self.data[indices]

        def backward(grad: np.ndarray) -> None:
            if self._backward_fn is not None:
                table = np.zeros_like(self.data)
                _scatter_add(table, indices, grad)
                self._accumulate(table)
                return
            if self.grad is None:  # a leaf owns its table: add into the touched rows
                self._own_grad().fill(0.0)
            _scatter_add(self.grad, indices, grad)

        return Tensor._make(out_data, (self,), backward)

    def expand_dims(self, axis: int) -> "Tensor":
        out_data = np.expand_dims(self.data, axis)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.squeeze(grad, axis=axis))

        return Tensor._make(out_data, (self,), backward)

    def squeeze(self, axis: Optional[int] = None) -> "Tensor":
        out_data = np.squeeze(self.data, axis=axis)
        input_shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(input_shape))

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Static constructors and combinators
    # ------------------------------------------------------------------ #
    @staticmethod
    def concatenate(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [as_tensor(t) for t in tensors]
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad: np.ndarray) -> None:
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(slicer)])

        return Tensor._make(out_data, tensors, backward)

    @staticmethod
    def stack(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [as_tensor(t) for t in tensors]
        out_data = np.stack([t.data for t in tensors], axis=axis)

        def backward(grad: np.ndarray) -> None:
            pieces = np.split(grad, len(tensors), axis=axis)
            for tensor, piece in zip(tensors, pieces):
                tensor._accumulate(np.squeeze(piece, axis=axis))

        return Tensor._make(out_data, tensors, backward)

    @staticmethod
    def where(condition: np.ndarray, a: ArrayLike, b: ArrayLike) -> "Tensor":
        condition = np.asarray(condition, dtype=bool)
        a, b = as_tensor(a), as_tensor(b)
        out_data = np.where(condition, a.data, b.data)

        def backward(grad: np.ndarray) -> None:
            a._accumulate(np.where(condition, grad, 0.0))
            b._accumulate(np.where(condition, 0.0, grad))

        return Tensor._make(out_data, (a, b), backward)

    @staticmethod
    def zeros(shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad)
