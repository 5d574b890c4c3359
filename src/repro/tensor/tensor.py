"""A small reverse-mode automatic differentiation engine on NumPy arrays.

This is the framework substrate for the KAISA reproduction.  The design
mirrors the parts of PyTorch that K-FAC relies on:

* a ``Tensor`` that records the operation (``Function``) that produced it,
* ``Tensor.backward()`` that executes the tape dependency-driven (a node runs
  once all of its consumers have contributed, as in PyTorch's engine), so
  leaf gradients finalize eagerly in reverse-layer order,
* ``Tensor.register_hook`` observing a tensor's incoming gradient (the ``g``
  in the Kronecker factor ``G = g gᵀ``: K-FAC hooks a layer call's output),
* a ``no_grad`` context manager used for evaluation and factor bookkeeping.

Only floating point dtypes are supported; integer inputs (e.g. token ids or
class labels) are passed around as plain numpy arrays.
"""

from __future__ import annotations

import contextlib
import itertools
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from .dtypes import get_default_dtype, resolve_dtype

__all__ = ["Tensor", "Function", "RemovableHandle", "no_grad", "is_grad_enabled"]

_GRAD_ENABLED = True

#: Monotonic ids shared by every hook collection (tensor and module level), so
#: a handle can never collide with another registration anywhere in a process.
_HOOK_IDS = itertools.count()


class RemovableHandle:
    """Removal handle for one hook registration.

    Every registration gets its own entry in the owner's hook dict, so the
    same callable registered twice yields two distinct handles (removing one
    leaves the other installed), and ``remove()`` is idempotent: it deletes
    only this registration's entry and is a no-op on repeat calls.  The handle
    is also callable (``handle()`` == ``handle.remove()``) for backward
    compatibility with the old closure-style removal API.
    """

    __slots__ = ("_hooks", "hook_id")

    def __init__(self, hooks: "Dict[int, Callable]") -> None:
        self._hooks = hooks
        self.hook_id = next(_HOOK_IDS)

    def remove(self) -> None:
        self._hooks.pop(self.hook_id, None)

    def __call__(self) -> None:
        self.remove()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "removed" if self.hook_id not in self._hooks else "active"
        return f"RemovableHandle(id={self.hook_id}, {state})"


def _register_hook(hooks: "Dict[int, Callable]", hook: Callable) -> RemovableHandle:
    """Insert ``hook`` into an ordered hook dict and return its handle."""
    if not callable(hook):
        raise TypeError(f"hook must be callable, got {type(hook).__name__}")
    handle = RemovableHandle(hooks)
    hooks[handle.hook_id] = hook
    return handle


@contextlib.contextmanager
def no_grad():
    """Context manager that disables gradient tracking inside its block."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record autograd history."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, reversing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading broadcast dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dimensions that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Function:
    """Base class for differentiable operations.

    Subclasses implement ``forward`` (returning a numpy array) and
    ``backward`` (returning one gradient array, or ``None``, per parent).
    ``needs_input_grad`` holds one flag per parent, set by :meth:`apply` from
    the parents' ``requires_grad``: a ``backward`` may return ``None`` for a
    parent that does not need a gradient instead of computing it.
    """

    def __init__(self, *parents: "Tensor"):
        self.parents = parents
        self.needs_input_grad: tuple = (True,) * len(parents)
        self.saved: tuple = ()

    def save_for_backward(self, *values) -> None:
        self.saved = values

    def forward(self, *args, **kwargs) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray):  # pragma: no cover - abstract
        raise NotImplementedError

    @classmethod
    def apply(cls, *args, **kwargs) -> "Tensor":
        tensor_args = [a for a in args if isinstance(a, Tensor)]
        ctx = cls(*tensor_args)
        ctx.needs_input_grad = tuple(t.requires_grad for t in tensor_args)
        raw = [a.data if isinstance(a, Tensor) else a for a in args]
        out_data = ctx.forward(*raw, **kwargs)
        requires_grad = _GRAD_ENABLED and any(ctx.needs_input_grad)
        out = Tensor(out_data, requires_grad=requires_grad, _copy=False)
        if requires_grad:
            out._ctx = ctx
        return out


class Tensor:
    """N-dimensional array with reverse-mode autograd support."""

    __slots__ = ("data", "requires_grad", "grad", "_ctx", "_hooks", "__weakref__")
    __array_priority__ = 100.0  # numpy defers binary ops to Tensor

    def __init__(self, data, requires_grad: bool = False, dtype=None, _copy: bool = True):
        if isinstance(data, Tensor):
            data = data.data
        if dtype is not None:
            arr = np.asarray(data, dtype=resolve_dtype(dtype))
        else:
            was_ndarray = isinstance(data, (np.ndarray, np.generic))
            arr = np.asarray(data)
            if arr.dtype.kind != "f" or not was_ndarray:
                # Lists/scalars default to float32; existing float arrays keep their dtype.
                arr = arr.astype(get_default_dtype())
        if _copy and arr is data:
            arr = np.array(arr)
        self.data: np.ndarray = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._ctx: Optional[Function] = None
        # Hook dicts are allocated lazily: most tensors never carry hooks and
        # tensor construction is on the hot path of every traced operation.
        self._hooks: Optional[Dict[int, Callable[[np.ndarray], None]]] = None

    # ------------------------------------------------------------------ meta
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
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False, _copy=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad, _copy=False)

    def astype(self, dtype) -> "Tensor":
        return Cast.apply(self, dtype=resolve_dtype(dtype))

    def zero_grad(self) -> None:
        self.grad = None

    def register_hook(self, hook: Callable[[np.ndarray], None]) -> RemovableHandle:
        """Register ``hook(grad)`` called when this tensor's *incoming* gradient is computed.

        The hook observes the raw upstream gradient before it is accumulated
        into ``.grad`` (for leaves) or propagated to parents.  Returns a
        :class:`RemovableHandle`.
        """
        if self._hooks is None:
            self._hooks = {}
        return _register_hook(self._hooks, hook)

    # -------------------------------------------------------------- backward
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("called backward on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)

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
            if node._ctx is not None:
                for parent in node._ctx.parents:
                    if parent.requires_grad and id(parent) not in visited:
                        stack.append((parent, False))

        # Dependency-driven execution: a node runs its local backward as soon
        # as every consumer has contributed its share of the incoming
        # gradient (consumer-edge counting, as in PyTorch's engine) instead
        # of at its position in a global post-order walk.  A leaf's gradient
        # is therefore *finalized* — accumulated into ``.grad`` — the moment
        # the owning layer's local backward completes, in reverse-layer order,
        # while earlier layers are still backpropagating, and tensor hooks
        # (K-FAC's G capture) and module full backward hooks fire in that
        # order too.
        # Scheduling is a deterministic function of the graph structure, so
        # every data-parallel rank observes the identical event order.
        consumers: dict[int, int] = {}
        for node in topo:
            if node._ctx is not None:
                for parent in node._ctx.parents:
                    if parent.requires_grad and id(parent) in visited:
                        consumers[id(parent)] = consumers.get(id(parent), 0) + 1

        def finalize_leaf(leaf: "Tensor", leaf_grad: np.ndarray) -> None:
            if leaf._hooks:
                for hook in tuple(leaf._hooks.values()):
                    hook(leaf_grad)
            if leaf.grad is None:
                leaf.grad = leaf_grad.astype(leaf.data.dtype, copy=True)
            else:
                leaf.grad = leaf.grad + leaf_grad.astype(leaf.data.dtype)

        grads: dict[int, np.ndarray] = {id(self): grad}
        ready: list[Tensor] = [self]
        while ready:
            node = ready.pop()
            node_grad = grads.pop(id(node), None)
            if node._ctx is None:
                if node_grad is not None:
                    finalize_leaf(node, node_grad)
                continue
            if node_grad is None:
                # Every consumer contributed None; still release the parents.
                parent_grads: tuple = (None,) * len(node._ctx.parents)
            else:
                if node._hooks:
                    for hook in tuple(node._hooks.values()):
                        hook(node_grad)
                parent_grads = node._ctx.backward(node_grad)
                if not isinstance(parent_grads, tuple):
                    parent_grads = (parent_grads,)
            for parent, pgrad in zip(node._ctx.parents, parent_grads):
                if not parent.requires_grad:
                    continue
                pid = id(parent)
                if pid not in consumers:
                    continue
                remaining = consumers[pid] = consumers[pid] - 1
                if pgrad is not None:
                    if pid in grads:
                        grads[pid] = grads[pid] + pgrad
                    else:
                        grads[pid] = pgrad
                if remaining == 0:
                    ready.append(parent)

    # ------------------------------------------------------------ arithmetic
    def __add__(self, other) -> "Tensor":
        return Add.apply(self, _as_tensor(other, self.dtype))

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        return Sub.apply(self, _as_tensor(other, self.dtype))

    def __rsub__(self, other) -> "Tensor":
        return Sub.apply(_as_tensor(other, self.dtype), self)

    def __mul__(self, other) -> "Tensor":
        return Mul.apply(self, _as_tensor(other, self.dtype))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        return Div.apply(self, _as_tensor(other, self.dtype))

    def __rtruediv__(self, other) -> "Tensor":
        return Div.apply(_as_tensor(other, self.dtype), self)

    def __neg__(self) -> "Tensor":
        return Neg.apply(self)

    def __pow__(self, exponent) -> "Tensor":
        return Pow.apply(self, exponent=float(exponent))

    def __matmul__(self, other) -> "Tensor":
        return MatMul.apply(self, _as_tensor(other, self.dtype))

    def __getitem__(self, index) -> "Tensor":
        return GetItem.apply(self, index=index)

    # ------------------------------------------------------------ reductions
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return Sum.apply(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return Mean.apply(self, axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        return Max.apply(self, axis=axis, keepdims=keepdims)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mean = self.mean(axis=axis, keepdims=True)
        centered = self - mean
        out = (centered * centered).mean(axis=axis, keepdims=keepdims)
        return out

    # ------------------------------------------------------------- shape ops
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return Reshape.apply(self, shape=shape)

    def flatten(self, start_dim: int = 0) -> "Tensor":
        shape = self.shape[:start_dim] + (-1,)
        return self.reshape(*shape)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 2 and self.ndim != 2:
            order = list(range(self.ndim))
            order[axes[0]], order[axes[1]] = order[axes[1]], order[axes[0]]
            axes = tuple(order)
        elif len(axes) != self.ndim:
            raise ValueError("transpose axes must cover every dimension")
        return Transpose.apply(self, axes=axes)

    def pad(self, pad_width) -> "Tensor":
        return Pad.apply(self, pad_width=tuple(tuple(p) for p in pad_width))

    # ---------------------------------------------------------- element-wise
    def exp(self) -> "Tensor":
        return Exp.apply(self)

    def log(self) -> "Tensor":
        return Log.apply(self)

    def sqrt(self) -> "Tensor":
        return Pow.apply(self, exponent=0.5)

    def relu(self) -> "Tensor":
        return ReLU.apply(self)

    def sigmoid(self) -> "Tensor":
        return Sigmoid.apply(self)

    def tanh(self) -> "Tensor":
        return Tanh.apply(self)

    def clip(self, low: float, high: float) -> "Tensor":
        return Clip.apply(self, low=float(low), high=float(high))

    # ---------------------------------------------------------- constructors
    @staticmethod
    def zeros(*shape, dtype=None, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=resolve_dtype(dtype)), requires_grad=requires_grad, _copy=False)

    @staticmethod
    def ones(*shape, dtype=None, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape, dtype=resolve_dtype(dtype)), requires_grad=requires_grad, _copy=False)

    @staticmethod
    def randn(*shape, dtype=None, requires_grad: bool = False, rng: Optional[np.random.Generator] = None) -> "Tensor":
        rng = rng if rng is not None else np.random.default_rng()
        data = rng.standard_normal(shape).astype(resolve_dtype(dtype))
        return Tensor(data, requires_grad=requires_grad, _copy=False)

    @staticmethod
    def concatenate(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        return Concatenate.apply(*tensors, axis=axis)

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        return Tensor.concatenate([t.reshape(*t.shape[:axis], 1, *t.shape[axis:]) for t in tensors], axis=axis)


def _as_tensor(value, dtype) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype), _copy=False)


# --------------------------------------------------------------------------
# Elementary differentiable operations
# --------------------------------------------------------------------------
class Add(Function):
    def forward(self, a, b):
        self.save_for_backward(a.shape, b.shape)
        return a + b

    def backward(self, grad):
        a_shape, b_shape = self.saved
        needs_a, needs_b = self.needs_input_grad
        return (
            _unbroadcast(grad, a_shape) if needs_a else None,
            _unbroadcast(grad, b_shape) if needs_b else None,
        )


class Sub(Function):
    def forward(self, a, b):
        self.save_for_backward(a.shape, b.shape)
        return a - b

    def backward(self, grad):
        a_shape, b_shape = self.saved
        needs_a, needs_b = self.needs_input_grad
        return (
            _unbroadcast(grad, a_shape) if needs_a else None,
            _unbroadcast(-grad, b_shape) if needs_b else None,
        )


class Mul(Function):
    def forward(self, a, b):
        self.save_for_backward(a, b)
        return a * b

    def backward(self, grad):
        a, b = self.saved
        needs_a, needs_b = self.needs_input_grad
        return (
            _unbroadcast(grad * b, a.shape) if needs_a else None,
            _unbroadcast(grad * a, b.shape) if needs_b else None,
        )


class Div(Function):
    def forward(self, a, b):
        self.save_for_backward(a, b)
        return a / b

    def backward(self, grad):
        a, b = self.saved
        needs_a, needs_b = self.needs_input_grad
        return (
            _unbroadcast(grad / b, a.shape) if needs_a else None,
            _unbroadcast(-grad * a / (b * b), b.shape) if needs_b else None,
        )


class Neg(Function):
    def forward(self, a):
        return -a

    def backward(self, grad):
        return (-grad,)


class Pow(Function):
    def forward(self, a, exponent):
        self.save_for_backward(a, exponent)
        return a ** exponent

    def backward(self, grad):
        a, exponent = self.saved
        return (grad * exponent * np.power(a, exponent - 1.0),)


class Exp(Function):
    def forward(self, a):
        out = np.exp(a)
        self.save_for_backward(out)
        return out

    def backward(self, grad):
        (out,) = self.saved
        return (grad * out,)


class Log(Function):
    def forward(self, a):
        self.save_for_backward(a)
        return np.log(a)

    def backward(self, grad):
        (a,) = self.saved
        return (grad / a,)


class ReLU(Function):
    def forward(self, a):
        mask = a > 0
        self.save_for_backward(mask)
        return a * mask

    def backward(self, grad):
        (mask,) = self.saved
        return (grad * mask,)


class Sigmoid(Function):
    def forward(self, a):
        out = 1.0 / (1.0 + np.exp(-a))
        self.save_for_backward(out)
        return out

    def backward(self, grad):
        (out,) = self.saved
        return (grad * out * (1.0 - out),)


class Tanh(Function):
    def forward(self, a):
        out = np.tanh(a)
        self.save_for_backward(out)
        return out

    def backward(self, grad):
        (out,) = self.saved
        return (grad * (1.0 - out * out),)


class Clip(Function):
    def forward(self, a, low, high):
        mask = (a >= low) & (a <= high)
        self.save_for_backward(mask)
        return np.clip(a, low, high)

    def backward(self, grad):
        (mask,) = self.saved
        return (grad * mask,)


class Cast(Function):
    def forward(self, a, dtype):
        self.save_for_backward(a.dtype)
        return a.astype(dtype)

    def backward(self, grad):
        (dtype,) = self.saved
        return (grad.astype(dtype),)


class MatMul(Function):
    def forward(self, a, b):
        self.save_for_backward(a, b)
        return a @ b

    def backward(self, grad):
        a, b = self.saved
        needs_a, needs_b = self.needs_input_grad
        # Batched operands contract over their broadcast batch dimensions.
        return (
            _unbroadcast(grad @ np.swapaxes(b, -1, -2), a.shape) if needs_a else None,
            _unbroadcast(np.swapaxes(a, -1, -2) @ grad, b.shape) if needs_b else None,
        )


class Sum(Function):
    def forward(self, a, axis, keepdims):
        self.save_for_backward(a.shape, axis, keepdims)
        return a.sum(axis=axis, keepdims=keepdims)

    def backward(self, grad):
        shape, axis, keepdims = self.saved
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            for ax in sorted(a % len(shape) for a in axes):
                grad = np.expand_dims(grad, ax)
        return (np.broadcast_to(grad, shape).astype(grad.dtype, copy=False),)


class Mean(Function):
    def forward(self, a, axis, keepdims):
        self.save_for_backward(a.shape, axis, keepdims, a.size)
        return a.mean(axis=axis, keepdims=keepdims)

    def backward(self, grad):
        shape, axis, keepdims, total = self.saved
        if axis is None:
            count = total
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([shape[a] for a in axes]))
            if not keepdims:
                for ax in sorted(a % len(shape) for a in axes):
                    grad = np.expand_dims(grad, ax)
        return ((np.broadcast_to(grad, shape) / count).astype(grad.dtype, copy=False),)


class Max(Function):
    def forward(self, a, axis, keepdims):
        out = a.max(axis=axis, keepdims=True)
        mask = (a == out).astype(a.dtype)
        mask /= mask.sum(axis=axis, keepdims=True)
        self.save_for_backward(mask, axis, keepdims, a.shape)
        if not keepdims:
            out = np.squeeze(out, axis=axis) if axis is not None else out.reshape(())
        return out

    def backward(self, grad):
        mask, axis, keepdims, shape = self.saved
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            for ax in sorted(a % len(shape) for a in axes):
                grad = np.expand_dims(grad, ax)
        return ((np.broadcast_to(grad, shape) * mask).astype(mask.dtype, copy=False),)


class Reshape(Function):
    def forward(self, a, shape):
        self.save_for_backward(a.shape)
        return a.reshape(shape)

    def backward(self, grad):
        (shape,) = self.saved
        return (grad.reshape(shape),)


class Transpose(Function):
    def forward(self, a, axes):
        self.save_for_backward(axes)
        return np.transpose(a, axes)

    def backward(self, grad):
        (axes,) = self.saved
        return (np.transpose(grad, np.argsort(axes)),)


class Pad(Function):
    def forward(self, a, pad_width):
        self.save_for_backward(pad_width, a.shape)
        return np.pad(a, pad_width)

    def backward(self, grad):
        pad_width, shape = self.saved
        slices = tuple(slice(p[0], p[0] + s) for p, s in zip(pad_width, shape))
        return (grad[slices],)


def _scatter_add_rows(out: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``np.add.at(out, rows, values)`` for a flat row index: sort once, one segment sum per distinct row.

    The stable sort keeps duplicates in index order, so the result is a
    deterministic function of the index (equal to ``np.add.at`` up to the
    association order of a row's sum).
    """
    if rows.size == 0:
        return
    rows = np.where(rows < 0, rows + out.shape[0], rows)
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    starts = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
    out[rows[starts]] = np.add.reduceat(values[order].astype(out.dtype, copy=False), starts, axis=0)


class GetItem(Function):
    def forward(self, a, index):
        self.save_for_backward(a.shape, a.dtype, index)
        return a[index]

    def backward(self, grad):
        shape, dtype, index = self.saved
        out = np.zeros(shape, dtype=dtype)
        if len(shape) == 2 and isinstance(index, np.ndarray) and index.dtype.kind in "iu":
            # A row gather (embedding lookup, masked-position select).
            _scatter_add_rows(out, index.reshape(-1), grad.reshape(-1, shape[1]))
        else:
            np.add.at(out, index, grad)
        return (out,)


class Concatenate(Function):
    def forward(self, *arrays, axis):
        self.save_for_backward(axis, [a.shape[axis] for a in arrays])
        return np.concatenate(arrays, axis=axis)

    def backward(self, grad):
        axis, sizes = self.saved
        splits = np.cumsum(sizes)[:-1]
        return tuple(np.split(grad, splits, axis=axis))
