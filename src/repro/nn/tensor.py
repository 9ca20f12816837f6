"""Reverse-mode automatic differentiation over NumPy arrays.

This module is the foundation of the ``repro.nn`` framework.  It provides a
:class:`Tensor` wrapping a ``numpy.ndarray`` together with a dynamically
built computation graph, so that gradients of scalar losses can be obtained
with :meth:`Tensor.backward`.

The design mirrors PyTorch's eager autograd at a much smaller scale:

* every differentiable operation records its parents and a closure that
  propagates the incoming gradient to them;
* broadcasting is fully supported — gradients are summed back over
  broadcast dimensions by :func:`_unbroadcast`;
* graphs are freed after ``backward`` unless ``retain_graph=True``.

Only float64/float32 data participates in differentiation; integer tensors
may flow through the graph (e.g. as indices) but never receive gradients.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from . import kernels
from .rng import resolve_rng

Arrayable = Union["Tensor", np.ndarray, float, int, list, tuple]

_grad_enabled = True


class _Version:
    """Shared mutation counter for tensors aliasing the same storage.

    Mirrors PyTorch's per-storage version counter: every in-place
    mutation bumps it, and the sanitizer (:mod:`repro.nn.sanitizer`)
    compares the value recorded when a graph node saved a tensor for
    backward against the value at backward time.  Views created through
    the official aliasing ops (:meth:`Tensor.detach`, basic
    ``__getitem__`` slicing) share the counter object; copies
    (:meth:`Tensor.clone`, :meth:`Tensor.copy`) get a fresh one.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self) -> None:
        self.value += 1

    def __repr__(self) -> str:
        return f"_Version({self.value})"


class no_grad:
    """Context manager that disables gradient tracking.

    Mirrors ``torch.no_grad``.  Useful during evaluation to avoid building
    computation graphs::

        with no_grad():
            scores = model(batch)
    """

    def __enter__(self) -> "no_grad":
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc) -> None:
        global _grad_enabled
        _grad_enabled = self._prev


def is_grad_enabled() -> bool:
    """Return whether operations are currently recorded on the graph."""
    return _grad_enabled


def _as_array(value: Arrayable, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    arr = np.asarray(value, dtype=dtype)
    if arr.dtype == np.float16:
        arr = arr.astype(np.float64)
    return arr


def ensure_tensor(value: Arrayable) -> "Tensor":
    """Coerce ``value`` to a :class:`Tensor` (no copy when already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def consuming(backward: Callable) -> Callable:
    """Mark ``backward`` as consuming its forward's residuals in place.

    :meth:`Tensor.backward` runs each node's closure once and then drops
    it, so a closure may overwrite the activations its forward saved
    with its own gradients instead of allocating fresh buffers.  The
    wrapper turns a second call, whose residuals are gone, into a
    ``RuntimeError`` instead of silently wrong gradients.
    """
    spent = False

    def once(grad):
        nonlocal spent
        if spent:
            raise RuntimeError(
                f"{backward.__qualname__} already ran: it consumed its "
                f"saved activations in place")
        spent = True
        return backward(grad)

    return once


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` over the dimensions that were added by broadcasting.

    ``grad`` has the broadcast result's shape; the return value has ``shape``.
    """
    if grad.shape == shape:
        return grad
    # Remove leading dims that were prepended by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dims where the original size was 1 but the grad's is not.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy-backed tensor with reverse-mode autograd.

    Parameters
    ----------
    data:
        Anything convertible to ``numpy.ndarray``.
    requires_grad:
        If True, gradients are accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("_data", "requires_grad", "grad", "_backward", "_parents",
                 "name", "_grad_buf", "_version")

    __array_priority__ = 100  # make numpy defer to our reflected operators

    def __init__(self, data: Arrayable, requires_grad: bool = False, name: str = ""):
        self._version = _Version()
        self._data = _as_array(data)
        if requires_grad and not np.issubdtype(self._data.dtype, np.floating):
            self._data = self._data.astype(np.float64)
        self.requires_grad = requires_grad and _grad_enabled
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: tuple = ()
        self.name = name
        self._grad_buf: Optional[np.ndarray] = None

    @property
    def data(self) -> np.ndarray:
        """The underlying array.  Rebinding it counts as a mutation."""
        return self._data

    @data.setter
    def data(self, value) -> None:
        self._data = value if isinstance(value, np.ndarray) else _as_array(value)
        self._version.bump()

    # ------------------------------------------------------------------
    # Versioning / in-place mutation
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Current value of the storage mutation counter."""
        return self._version.value

    def bump_version(self) -> None:
        """Record an out-of-band in-place mutation of :attr:`data`.

        Call this after mutating the array returned by :meth:`numpy`
        (or :attr:`data`) directly with NumPy, so the sanitizer's
        saved-tensor checks stay sound.  The in-place methods below call
        it automatically.
        """
        self._version.bump()

    def add_(self, other: Arrayable) -> "Tensor":
        """In-place ``self += other`` on the data (no autograd record)."""
        self._data += _as_array(other)
        self._version.bump()
        return self

    def sub_(self, other: Arrayable) -> "Tensor":
        """In-place ``self -= other`` on the data (no autograd record)."""
        self._data -= _as_array(other)
        self._version.bump()
        return self

    def mul_(self, other: Arrayable) -> "Tensor":
        """In-place ``self *= other`` on the data (no autograd record)."""
        self._data *= _as_array(other)
        self._version.bump()
        return self

    def copy_(self, other: Arrayable) -> "Tensor":
        """Copy ``other``'s values into this tensor's storage."""
        np.copyto(self._data, _as_array(other))
        self._version.bump()
        return self

    def fill_(self, value: float) -> "Tensor":
        """Fill the storage with a scalar value."""
        self._data.fill(value)
        self._version.bump()
        return self

    def zero_(self) -> "Tensor":
        """Zero the storage in place."""
        return self.fill_(0.0)

    def masked_fill_(self, mask: np.ndarray, value: float) -> "Tensor":
        """In-place variant of :meth:`masked_fill` (no autograd record)."""
        np.copyto(self._data, value, where=_as_array(mask).astype(bool))
        self._version.bump()
        return self

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
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
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python scalar."""
        return self.data.item()

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph.

        The detached view aliases this tensor's storage, so it shares the
        version counter: mutating either through the in-place API is
        visible to the sanitizer's saved-tensor checks on both.
        """
        out = Tensor(self._data, requires_grad=False)
        out._version = self._version
        return out

    def clone(self) -> "Tensor":
        """Return a differentiable copy with its own storage.

        Unlike :meth:`detach`, the clone participates in the graph
        (gradients flow straight through) and — because its storage is
        fresh — carries a *fresh* version counter: mutating the clone in
        place never invalidates graphs that saved the original.
        """
        def backward(grad):
            return (grad,)

        return Tensor._make(self._data.copy(), (self,), backward)

    def copy(self) -> "Tensor":
        """Return a leaf tensor with copied data (fresh version counter)."""
        return Tensor(self._data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Iterable["Tensor"],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        """Create a non-leaf tensor recording ``backward`` on the graph."""
        parents = tuple(p for p in parents if isinstance(p, Tensor))
        requires = _grad_enabled and any(p.requires_grad for p in parents)
        out = Tensor(data)
        out.requires_grad = requires
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    def backward(self, grad: Optional[Arrayable] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        Parameters
        ----------
        grad:
            Gradient of the final objective w.r.t. this tensor.  Defaults to
            1.0, which is only valid for scalar tensors.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar backward()")
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad).astype(self.data.dtype, copy=False)

        # Topological order via iterative DFS (recursion would overflow for
        # long RNN chains).
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
                if id(parent) not in visited and parent.requires_grad:
                    stack.append((parent, False))

        # `grads` maps node id -> accumulated gradient array.  `owned` marks
        # entries whose array this loop allocated itself; only those may be
        # mutated in place.  Arrays returned by backward closures are
        # *borrowed* (a closure may hand the same array, or a view of the
        # incoming grad, to several parents), so the first contribution is
        # stored by reference and an owned accumulator is only allocated when
        # a second contribution arrives — after which further fan-in
        # accumulates with in-place ``+=`` instead of fresh allocations.
        grads: dict[int, np.ndarray] = {id(self): np.asarray(grad)}
        owned: set[int] = set()
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward is None:
                self._accumulate_leaf(node, node_grad)
                continue
            contributions = node._backward(node_grad)
            if contributions is None:
                continue
            for parent, contrib in zip(node._parents, contributions):
                if contrib is None or not parent.requires_grad:
                    continue
                key = id(parent)
                existing = grads.get(key)
                if existing is None:
                    grads[key] = contrib
                elif key in owned:
                    existing += contrib
                else:
                    grads[key] = existing + contrib
                    owned.add(key)
            # Leaf accumulation for non-leaf nodes the user holds onto is not
            # needed; intermediate grads live only in `grads`.

        # Free the graph.
        for node in topo:
            node._backward = None
            node._parents = ()

    @staticmethod
    def _accumulate_leaf(node: "Tensor", node_grad: np.ndarray) -> None:
        """Accumulate a leaf gradient, reusing the persistent buffer.

        Leaves (parameters in particular) receive a gradient every training
        step; keeping one buffer per leaf and copying into it avoids one
        array allocation per parameter per backward.
        """
        if node.grad is None:
            buf = node._grad_buf
            if (buf is not None and buf.shape == node_grad.shape
                    and buf.dtype == node_grad.dtype):
                np.copyto(buf, node_grad)
                node.grad = buf
            else:
                node.grad = node_grad.copy()
                node._grad_buf = node.grad
        else:
            node.grad += node_grad

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: Arrayable) -> "Tensor":
        other = ensure_tensor(other)
        out_data = self.data + other.data

        def backward(grad):
            return (_unbroadcast(grad, self.shape),
                    _unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad):
            return (-grad,)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: Arrayable) -> "Tensor":
        other = ensure_tensor(other)
        out_data = self.data - other.data

        def backward(grad):
            return (_unbroadcast(grad, self.shape),
                    _unbroadcast(-grad, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    def __rsub__(self, other: Arrayable) -> "Tensor":
        return ensure_tensor(other) - self

    def __mul__(self, other: Arrayable) -> "Tensor":
        other = ensure_tensor(other)
        out_data = self.data * other.data
        a_data, b_data = self.data, other.data

        def backward(grad):
            return (_unbroadcast(grad * b_data, self.shape),
                    _unbroadcast(grad * a_data, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: Arrayable) -> "Tensor":
        other = ensure_tensor(other)
        out_data = self.data / other.data
        a_data, b_data = self.data, other.data

        def backward(grad):
            return (_unbroadcast(grad / b_data, self.shape),
                    _unbroadcast(-grad * a_data / (b_data ** 2), other.shape))

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: Arrayable) -> "Tensor":
        return ensure_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent
        base = self.data

        def backward(grad):
            return (grad * exponent * base ** (exponent - 1),)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Comparisons (non-differentiable, return plain arrays)
    # ------------------------------------------------------------------
    def __gt__(self, other):
        return self.data > _as_array(other)

    def __lt__(self, other):
        return self.data < _as_array(other)

    def __ge__(self, other):
        return self.data >= _as_array(other)

    def __le__(self, other):
        return self.data <= _as_array(other)

    # ------------------------------------------------------------------
    # Matrix operations
    # ------------------------------------------------------------------
    def matmul(self, other: Arrayable) -> "Tensor":
        """Batched matrix multiply with NumPy ``@`` semantics."""
        other = ensure_tensor(other)
        out_data = self.data @ other.data
        a, b = self.data, other.data

        def backward(grad):
            if a.ndim == 1 and b.ndim == 1:
                ga = grad * b
                gb = grad * a
            elif a.ndim == 1:
                # (k,) @ (..., k, n) -> (..., n)
                ga = _unbroadcast((grad[..., None, :] * b).sum(axis=-1), a.shape)
                gb = _unbroadcast(a[:, None] * grad[..., None, :], b.shape)
            elif b.ndim == 1:
                # (..., m, k) @ (k,) -> (..., m)
                ga = _unbroadcast(grad[..., :, None] * b, a.shape)
                gb = _unbroadcast((grad[..., :, None] * a).sum(
                    axis=tuple(range(a.ndim - 1))), b.shape)
            else:
                ga = _unbroadcast(grad @ np.swapaxes(b, -1, -2), a.shape)
                gb = _unbroadcast(np.swapaxes(a, -1, -2) @ grad, b.shape)
            return ga, gb

        return Tensor._make(out_data, (self, other), backward)

    __matmul__ = matmul

    def __rmatmul__(self, other: Arrayable) -> "Tensor":
        return ensure_tensor(other).matmul(self)

    def transpose(self, *axes: int) -> "Tensor":
        """Permute dimensions.  Without arguments, reverse all axes."""
        if not axes:
            axes_tuple: Optional[tuple] = None
            out_data = self.data.T
        else:
            if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
                axes = tuple(axes[0])
            axes_tuple = tuple(axes)
            out_data = self.data.transpose(axes_tuple)

        def backward(grad):
            if axes_tuple is None:
                return (grad.T,)
            return (grad.transpose(np.argsort(axes_tuple)),)

        return Tensor._make(out_data, (self,), backward)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        out_data = np.swapaxes(self.data, axis1, axis2)

        def backward(grad):
            return (np.swapaxes(grad, axis1, axis2),)

        return Tensor._make(out_data, (self,), backward)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape
        out_data = self.data.reshape(shape)

        def backward(grad):
            return (grad.reshape(original),)

        return Tensor._make(out_data, (self,), backward)

    def flatten(self) -> "Tensor":
        return self.reshape(-1)

    def expand_dims(self, axis: int) -> "Tensor":
        out_data = np.expand_dims(self.data, axis)

        def backward(grad):
            return (np.squeeze(grad, axis=axis),)

        return Tensor._make(out_data, (self,), backward)

    def squeeze(self, axis: Optional[int] = None) -> "Tensor":
        original = self.shape
        out_data = np.squeeze(self.data, axis=axis)

        def backward(grad):
            return (grad.reshape(original),)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.shape

        def backward(grad):
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            return (np.broadcast_to(g, shape).copy(),)

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.mean(axis=axis, keepdims=keepdims)
        shape = self.shape
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([shape[a] for a in axes]))

        def backward(grad):
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            return (np.broadcast_to(g, shape) / count,)

        return Tensor._make(out_data, (self,), backward)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        diff = self - mu
        return (diff * diff).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        data = self.data

        def backward(grad):
            g = grad
            out = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                out = np.expand_dims(out, axis=axis)
            mask = (data == out).astype(data.dtype)
            # Split gradient equally among ties (matches numpy conventions
            # closely enough for optimization purposes).
            mask = mask / mask.sum(axis=axis, keepdims=True)
            return (mask * g,)

        return Tensor._make(out_data, (self,), backward)

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad):
            return (grad * out_data,)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)
        data = self.data

        def backward(grad):
            return (grad / data,)

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad):
            return (grad / (2.0 * out_data),)

        return Tensor._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)
        sign = np.sign(self.data)

        def backward(grad):
            return (grad * sign,)

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad):
            return (grad * (1.0 - out_data ** 2),)

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = kernels.sigmoid(self.data)

        def backward(grad):
            return (grad * out_data * (1.0 - out_data),)

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad):
            return (grad * mask,)

        return Tensor._make(out_data, (self,), backward)

    def clip(self, lo: float, hi: float) -> "Tensor":
        out_data = np.clip(self.data, lo, hi)
        mask = (self.data >= lo) & (self.data <= hi)

        def backward(grad):
            return (grad * mask,)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Indexing / slicing
    # ------------------------------------------------------------------
    def __getitem__(self, index) -> "Tensor":
        if isinstance(index, Tensor):
            index = index.data
        if isinstance(index, tuple):
            index = tuple(i.data if isinstance(i, Tensor) else i for i in index)
        out_data = self.data[index]
        shape = self.shape
        dtype = self.dtype
        # Basic indexing (ints/slices) maps every output element to a
        # distinct input element, so the backward can scatter with a plain
        # (fast) view-assignment; ``np.add.at`` is only needed for advanced
        # indices, where duplicates must accumulate.
        parts = index if isinstance(index, tuple) else (index,)
        basic = all(isinstance(p, (int, np.integer, slice)) or p is None
                    or p is Ellipsis for p in parts)

        def backward(grad):
            full = np.zeros(shape, dtype=dtype)
            if basic:
                full[index] = grad
            else:
                np.add.at(full, index, grad)
            return (full,)

        out = Tensor._make(out_data, (self,), backward)
        if basic:
            # Basic indexing returns a view of this tensor's storage, so
            # the slice shares the version counter (like detach()).
            out._version = self._version
        return out

    def take(self, indices: np.ndarray, axis: int = 0) -> "Tensor":
        """Gather rows along ``axis`` (duplicate indices accumulate grads)."""
        indices = _as_array(indices).astype(np.int64)
        out_data = np.take(self.data, indices, axis=axis)
        shape = self.shape
        dtype = self.dtype

        def backward(grad):
            if axis == 0:
                # One flat bincount over (row, column) cells sums each
                # cell's contributions in input order in float64, like
                # ``np.add.at`` on a float64 table (so byte-equal to it),
                # without its per-element dispatch.
                rows = shape[0]
                width = int(np.prod(shape[1:], dtype=np.int64))
                cells = ((indices.reshape(-1, 1) % rows) * width
                         + np.arange(width)).reshape(-1)
                full = np.bincount(cells, weights=grad.reshape(-1),
                                   minlength=rows * width)
                return (full.reshape(shape).astype(dtype, copy=False),)
            full = np.zeros(shape, dtype=dtype)
            idx = [slice(None)] * len(shape)
            idx[axis] = indices
            np.add.at(full, tuple(idx), grad)
            return (full,)

        return Tensor._make(out_data, (self,), backward)

    def masked_fill(self, mask: np.ndarray, value: float) -> "Tensor":
        """Return a tensor equal to ``self`` but with ``value`` where ``mask``."""
        mask = _as_array(mask).astype(bool)
        out_data = np.where(mask, value, self.data)

        def backward(grad):
            return (np.where(mask, 0.0, grad),)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Shape assembly
    # ------------------------------------------------------------------
    @staticmethod
    def concat(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [ensure_tensor(t) for t in tensors]
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.shape[axis] for t in tensors]
        splits = np.cumsum(sizes)[:-1]

        def backward(grad):
            return tuple(np.split(grad, splits, axis=axis))

        return Tensor._make(out_data, tensors, backward)

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [ensure_tensor(t) for t in tensors]
        out_data = np.stack([t.data for t in tensors], axis=axis)

        def backward(grad):
            pieces = np.split(grad, len(tensors), axis=axis)
            return tuple(np.squeeze(p, axis=axis) for p in pieces)

        return Tensor._make(out_data, tensors, backward)

    @staticmethod
    def where(condition: np.ndarray, a: Arrayable, b: Arrayable) -> "Tensor":
        condition = _as_array(condition).astype(bool)
        a, b = ensure_tensor(a), ensure_tensor(b)
        out_data = np.where(condition, a.data, b.data)

        def backward(grad):
            return (_unbroadcast(np.where(condition, grad, 0.0), a.shape),
                    _unbroadcast(np.where(condition, 0.0, grad), b.shape))

        return Tensor._make(out_data, (a, b), backward)


def zeros(*shape, requires_grad: bool = False) -> Tensor:
    """Tensor of zeros."""
    return Tensor(np.zeros(shape, dtype=np.float64),
                  requires_grad=requires_grad)


def ones(*shape, requires_grad: bool = False) -> Tensor:
    """Tensor of ones."""
    return Tensor(np.ones(shape, dtype=np.float64),
                  requires_grad=requires_grad)


def randn(*shape, rng: Optional[np.random.Generator] = None,
          scale: float = 1.0, requires_grad: bool = False) -> Tensor:
    """Tensor of normal noise with standard deviation ``scale``."""
    rng = resolve_rng(rng)
    return Tensor(rng.normal(0.0, scale, size=shape), requires_grad=requires_grad)


def arange(*args, requires_grad: bool = False) -> Tensor:
    """Tensor wrapping ``numpy.arange``."""
    return Tensor(np.arange(*args, dtype=np.float64), requires_grad=requires_grad)
