"""Reverse-mode autodiff ``Tensor`` built on numpy.

Each operation returns a new :class:`Tensor` whose ``_backward`` closure
knows how to push the output gradient to its parents.  Calling
:meth:`Tensor.backward` runs a topological sort of the recorded graph and
accumulates gradients into every leaf tensor with ``requires_grad=True``;
each interior gradient is released once it has been propagated.  A leaf
reuses its private gradient buffer across backward passes, and an
interior node adopts its first contribution without copying.

The op set is intentionally the minimum the rest of the library needs
(transformer layers, EMD loss, differentiable constraint relaxations), but
each op supports full numpy broadcasting, and gradients through broadcasts
are reduced back to the parent shape by :func:`_unbroadcast`.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]


class _GradMode(threading.local):
    """Whether operations record the graph, per thread: a new thread
    starts with recording on, whatever the thread that started it does."""

    enabled = True


_grad_mode = _GradMode()

_DEFAULT_DTYPE = np.dtype(np.float64)
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def get_default_dtype() -> np.dtype:
    """Dtype new tensors are created with (float64 unless overridden)."""
    return _DEFAULT_DTYPE


def set_default_dtype(dtype) -> None:
    """Set the dtype used when constructing tensors from raw data.

    Only float32 and float64 are supported: float64 is the library
    default (gradient checks, golden fingerprints), float32 is the
    training fast path (fused kernels + single-precision BLAS).
    """
    global _DEFAULT_DTYPE
    resolved = np.dtype(dtype)
    if resolved not in _FLOAT_DTYPES:
        raise ValueError(f"default dtype must be float32 or float64, got {resolved}")
    _DEFAULT_DTYPE = resolved


@contextlib.contextmanager
def default_dtype(dtype):
    """Context manager scoping :func:`set_default_dtype`."""
    previous = _DEFAULT_DTYPE
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(previous)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording (e.g. for inference)
    in the calling thread."""
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def grad_enabled() -> bool:
    """Return whether operations in this thread record the autodiff graph."""
    return _grad_mode.enabled


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """An ndarray with an optional gradient and a recorded backward graph."""

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_backward",
        "_parents",
        "_grad_buffer",
        "name",
    )

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
        dtype=None,
    ):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=_DEFAULT_DTYPE if dtype is None else dtype)
        self.requires_grad = bool(requires_grad) and grad_enabled()
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: tuple[Tensor, ...] = ()
        self._grad_buffer: Optional[np.ndarray] = None
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the underlying ndarray."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying ndarray (shared, not copied)."""
        return self.data

    def item(self) -> float:
        """Return the scalar value of a size-1 tensor."""
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor._wrap(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _wrap(data: np.ndarray) -> "Tensor":
        """Wrap an ndarray as a leaf tensor without dtype coercion."""
        out = Tensor.__new__(Tensor)
        out.data = data if isinstance(data, np.ndarray) else np.asarray(data)
        out.requires_grad = False
        out.grad = None
        out._backward = None
        out._parents = ()
        out._grad_buffer = None
        out.name = None
        return out

    def _lift(self, value: ArrayLike) -> "Tensor":
        """Coerce an operand to a tensor, matching this tensor's dtype.

        Raw scalars and arrays are constants (no gradient), so casting
        them to ``self``'s dtype is free of correctness concerns and
        prevents float32 graphs from silently upcasting to float64 via
        numpy's promotion rules.
        """
        if isinstance(value, Tensor):
            return value
        return Tensor._wrap(np.asarray(value, dtype=self.data.dtype))

    def _make(
        self,
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        out = Tensor._wrap(data)
        if grad_enabled() and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            if self._parents:
                # Interior node: adopt the contribution without copying.
                # Backward closures never mutate the arrays they hand
                # off, and a second contribution allocates below instead
                # of writing in place — the adopted array may be shared
                # with a sibling's gradient (both parents of an add see
                # the same object).
                self.grad = grad
                return
            buffer = self._grad_buffer
            if (
                buffer is not None
                and buffer.shape == grad.shape
                and buffer.dtype == self.data.dtype
            ):
                # Leaf: copy into the private buffer from a previous
                # backward pass instead of allocating (zeros_like
                # dominated backward profiles).  A private copy is
                # required here — the optimizer and clip_grad_norm
                # mutate leaf gradients in place.
                np.copyto(buffer, grad)
                self.grad = buffer
            else:
                self.grad = np.array(grad, dtype=self.data.dtype)
                self._grad_buffer = self.grad
        elif self.grad is self._grad_buffer:
            self.grad += grad  # leaf: private reusable buffer
        else:
            # Interior: the first contribution was adopted, not owned —
            # never write through a potential alias.
            self.grad = self.grad + grad

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to ones, which is the usual seed for a scalar
        loss; for non-scalars an explicit seed must be provided.  Leaf
        gradients accumulate across calls; every interior gradient, this
        tensor's included, is ``None`` again when the call returns.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient requires a scalar tensor; "
                    f"got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ValueError(
                f"seed gradient shape {grad.shape} does not match tensor shape {self.shape}"
            )

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                # Nothing reads an interior gradient once it has been
                # propagated: free it now, and keep a repeated backward
                # over the same graph from re-adding stale sums.
                node.grad = None

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-self._lift(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return self._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data**2), other.shape)
                )

        return self._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        """Elementwise exponential."""
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return self._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        """Elementwise natural logarithm (input must be positive)."""
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return self._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        """Elementwise square root (input must be non-negative)."""
        out_data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * 0.5 / np.maximum(out_data, 1e-300))

        return self._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        """Elementwise hyperbolic tangent."""
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data**2))

        return self._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        """Elementwise logistic sigmoid."""
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return self._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        """Elementwise max(x, 0)."""
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return self._make(out_data, (self,), backward)

    def softplus(self) -> "Tensor":
        """Numerically stable ``log(1 + exp(x))``."""
        out_data = np.logaddexp(0.0, self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / (1.0 + np.exp(-self.data)))

        return self._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        """Elementwise absolute value; subgradient 0 at exactly 0."""
        sign = np.sign(self.data)
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * sign)

        return self._make(out_data, (self,), backward)

    def clip_min(self, minimum: float) -> "Tensor":
        """Elementwise ``max(x, minimum)``; gradient flows where x > minimum."""
        mask = self.data > minimum
        out_data = np.maximum(self.data, minimum)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (int, tuple, or all elements when None)."""
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return self._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Arithmetic mean over ``axis``."""
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Max reduction; gradient is split evenly across ties."""
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        expanded = self.data.max(axis=axis, keepdims=True)
        mask = (self.data == expanded).astype(self.data.dtype)
        mask /= mask.sum(axis=axis, keepdims=True)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(mask * g)

        return self._make(out_data, (self,), backward)

    def cumsum(self, axis: int = -1) -> "Tensor":
        """Cumulative sum along ``axis``."""
        out_data = np.cumsum(self.data, axis=axis)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                flipped = np.flip(grad, axis=axis)
                self._accumulate(np.flip(np.cumsum(flipped, axis=axis), axis=axis))

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Linear algebra and shape manipulation
    # ------------------------------------------------------------------
    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        out_data = self.data @ other.data

        if self.data.ndim < 2 or other.data.ndim < 2:
            raise ValueError(
                "matmul requires both operands to be at least 2-D; "
                f"got {self.shape} @ {other.shape}"
            )

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                g = grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                g = np.swapaxes(self.data, -1, -2) @ grad
                other._accumulate(_unbroadcast(g, other.shape))

        return self._make(out_data, (self, other), backward)

    def transpose(self, *axes: int) -> "Tensor":
        """Permute axes (reverses them when called without arguments)."""
        order = axes if axes else tuple(reversed(range(self.ndim)))
        inverse = np.argsort(order)
        out_data = self.data.transpose(order)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return self._make(out_data, (self,), backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        """Exchange two axes."""
        out_data = np.swapaxes(self.data, a, b)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.swapaxes(grad, a, b))

        return self._make(out_data, (self,), backward)

    def reshape(self, *shape: int) -> "Tensor":
        """View the data under a new shape (same number of elements)."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return self._make(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)

        return self._make(out_data, (self,), backward)

    @staticmethod
    def concatenate(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        """Concatenate tensors along an existing axis."""
        tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad: np.ndarray) -> None:
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if tensor.requires_grad:
                    slicer = [slice(None)] * grad.ndim
                    slicer[axis] = slice(start, stop)
                    tensor._accumulate(grad[tuple(slicer)])

        ref = tensors[0]
        return ref._make(out_data, tensors, backward)

    @staticmethod
    def stack(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        """Stack tensors along a new axis."""
        tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
        out_data = np.stack([t.data for t in tensors], axis=axis)

        def backward(grad: np.ndarray) -> None:
            for i, tensor in enumerate(tensors):
                if tensor.requires_grad:
                    tensor._accumulate(np.take(grad, i, axis=axis))

        ref = tensors[0]
        return ref._make(out_data, tensors, backward)
