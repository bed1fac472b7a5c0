"""A small reverse-mode automatic differentiation engine over numpy.

The design mirrors the tape-based autograd of mainstream frameworks:
:class:`Tensor` wraps a numpy array, records the operation that produced it
and its parents, and :meth:`Tensor.backward` walks the tape in reverse
topological order accumulating gradients.

Only the operations actually needed by the SACCS models are implemented
(dense algebra, element-wise nonlinearities, reductions, indexing/gather,
concatenation/stacking).  All operations support numpy broadcasting; the
backward pass un-broadcasts gradients back to the parents' shapes.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

ArrayLike = Union[np.ndarray, float, int, "Tensor"]

_GRAD_ENABLED = True


class no_grad:
    """Context manager disabling tape recording (used at inference time)."""

    def __enter__(self) -> None:
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False

    def __exit__(self, *exc) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev


def is_grad_enabled() -> bool:
    """Whether operations currently record onto the autograd tape."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so its shape matches the pre-broadcast ``shape``."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=np.float64)


class Tensor:
    """A numpy-backed array node on the autograd tape."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_op")
    __array_priority__ = 100  # ensure ndarray + Tensor dispatches to Tensor

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Sequence["Tensor"] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        _op: str = "",
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._parents: Tuple[Tensor, ...] = tuple(_parents) if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None
        self._op = _op

    # ------------------------------------------------------------------ infra

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag}, op={self._op!r})"

    def numpy(self) -> np.ndarray:
        """The underlying array (not a copy; treat as read-only)."""
        return self.data

    def item(self) -> float:
        """The scalar value of a 0-d / 1-element tensor."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """A new tensor sharing data but cut from the tape."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Back-propagate from this tensor through the recorded tape."""
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without gradient only allowed for scalar outputs")
            grad = np.ones_like(self.data)
        # Topological order via iterative DFS (avoids recursion limits on long tapes).
        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
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
        self._accumulate(np.asarray(grad, dtype=np.float64))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # --------------------------------------------------------------- builders

    @staticmethod
    def _binary(
        a: "Tensor",
        b: ArrayLike,
        out_data: np.ndarray,
        grad_a: Callable[[np.ndarray], np.ndarray],
        grad_b: Optional[Callable[[np.ndarray], np.ndarray]],
        op: str,
    ) -> "Tensor":
        b_tensor = b if isinstance(b, Tensor) else None
        requires = a.requires_grad or (b_tensor is not None and b_tensor.requires_grad)
        parents = [p for p in (a, b_tensor) if p is not None]

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad_a(grad))
            if b_tensor is not None and b_tensor.requires_grad and grad_b is not None:
                b_tensor._accumulate(grad_b(grad))

        return Tensor(out_data, requires, parents, backward, op)

    def _unary(
        self,
        out_data: np.ndarray,
        grad_fn: Callable[[np.ndarray], np.ndarray],
        op: str,
    ) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad_fn(grad))

        return Tensor(out_data, self.requires_grad, (self,), backward, op)

    # ------------------------------------------------------------- arithmetic

    def __add__(self, other: ArrayLike) -> "Tensor":
        o = _as_array(other)
        return Tensor._binary(self, other, self.data + o, lambda g: g, lambda g: g, "add")

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        o = _as_array(other)
        return Tensor._binary(self, other, self.data - o, lambda g: g, lambda g: -g, "sub")

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        o = _as_array(other)
        return Tensor._binary(self, other, o - self.data, lambda g: -g, lambda g: g, "rsub")

    def __mul__(self, other: ArrayLike) -> "Tensor":
        o = _as_array(other)
        return Tensor._binary(
            self, other, self.data * o, lambda g: g * o, lambda g: g * self.data, "mul"
        )

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        o = _as_array(other)
        return Tensor._binary(
            self,
            other,
            self.data / o,
            lambda g: g / o,
            lambda g: -g * self.data / (o * o),
            "div",
        )

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        o = _as_array(other)
        return Tensor._binary(
            self,
            other,
            o / self.data,
            lambda g: -g * o / (self.data * self.data),
            lambda g: g / self.data,
            "rdiv",
        )

    def __neg__(self) -> "Tensor":
        return self._unary(-self.data, lambda g: -g, "neg")

    def __pow__(self, exponent: float) -> "Tensor":
        out = self.data**exponent
        return self._unary(out, lambda g: g * exponent * self.data ** (exponent - 1), "pow")

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: "Tensor") -> "Tensor":
        """Matrix product supporting batched operands (numpy ``@`` semantics)."""
        o = _as_array(other)
        out = self.data @ o
        a_data = self.data

        def grad_a(g: np.ndarray) -> np.ndarray:
            return g @ np.swapaxes(o, -1, -2)

        def grad_b(g: np.ndarray) -> np.ndarray:
            return np.swapaxes(a_data, -1, -2) @ g

        return Tensor._binary(self, other, out, grad_a, grad_b, "matmul")

    # ----------------------------------------------------------- element-wise

    def exp(self) -> "Tensor":
        out = np.exp(self.data)
        return self._unary(out, lambda g: g * out, "exp")

    def log(self) -> "Tensor":
        return self._unary(np.log(self.data), lambda g: g / self.data, "log")

    def sqrt(self) -> "Tensor":
        out = np.sqrt(self.data)
        return self._unary(out, lambda g: g * 0.5 / out, "sqrt")

    def tanh(self) -> "Tensor":
        out = np.tanh(self.data)
        return self._unary(out, lambda g: g * (1.0 - out * out), "tanh")

    def sigmoid(self) -> "Tensor":
        from repro.utils.numerics import sigmoid as _sig

        out = _sig(self.data)
        return self._unary(out, lambda g: g * out * (1.0 - out), "sigmoid")

    def relu(self) -> "Tensor":
        mask = self.data > 0
        return self._unary(self.data * mask, lambda g: g * mask, "relu")

    def gelu(self) -> "Tensor":
        """Gaussian error linear unit (tanh approximation).

        The cube is ``x * x * x``: ``x**3`` takes numpy's generic pow
        kernel, which is far slower than two multiplies (DESIGN.md §13),
        and the fused forward (``repro.nn.infer``) replays this exact
        product to stay bitwise equal.
        """
        c = np.sqrt(2.0 / np.pi)
        x = self.data
        inner = c * (x + 0.044715 * (x * x * x))
        t = np.tanh(inner)
        out = 0.5 * x * (1.0 + t)
        d_inner = c * (1.0 + 3 * 0.044715 * x**2)
        local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner
        return self._unary(out, lambda g: g * local, "gelu")

    def clip(self, low: float, high: float) -> "Tensor":
        mask = (self.data >= low) & (self.data <= high)
        return self._unary(np.clip(self.data, low, high), lambda g: g * mask, "clip")

    # ------------------------------------------------------------- reductions

    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        out = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.data.shape

        def grad_fn(g: np.ndarray) -> np.ndarray:
            if axis is None:
                return np.broadcast_to(g, shape).copy()
            g_exp = g if keepdims else np.expand_dims(g, axis=axis)
            return np.broadcast_to(g_exp, shape).copy()

        return self._unary(out, grad_fn, "sum")

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        out = self.data.max(axis=axis, keepdims=True)
        mask = (self.data == out).astype(np.float64)
        mask /= mask.sum(axis=axis, keepdims=True)  # split ties evenly
        result = out if keepdims else np.squeeze(out, axis=axis)

        def grad_fn(g: np.ndarray) -> np.ndarray:
            g_exp = g if keepdims else np.expand_dims(g, axis=axis)
            return mask * g_exp

        return self._unary(result, grad_fn, "max")

    # ------------------------------------------------------------ shape & I/O

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        orig = self.data.shape
        return self._unary(self.data.reshape(shape), lambda g: g.reshape(orig), "reshape")

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        inverse = tuple(np.argsort(axes))
        return self._unary(self.data.transpose(axes), lambda g: g.transpose(inverse), "transpose")

    def swapaxes(self, a: int, b: int) -> "Tensor":
        return self._unary(np.swapaxes(self.data, a, b), lambda g: np.swapaxes(g, a, b), "swapaxes")

    def __getitem__(self, idx) -> "Tensor":
        out = self.data[idx]
        shape = self.data.shape

        def grad_fn(g: np.ndarray) -> np.ndarray:
            full = np.zeros(shape, dtype=np.float64)
            np.add.at(full, idx, g)
            return full

        return self._unary(out, grad_fn, "getitem")

    def gather_rows(self, indices: np.ndarray) -> "Tensor":
        """Embedding-style lookup: rows of a 2-d tensor selected by an int array.

        ``self`` has shape ``(V, D)``; ``indices`` any integer shape ``S``;
        result has shape ``S + (D,)``.
        """
        indices = np.asarray(indices, dtype=np.intp)
        out = self.data[indices]
        shape = self.data.shape

        def grad_fn(g: np.ndarray) -> np.ndarray:
            full = np.zeros(shape, dtype=np.float64)
            np.add.at(full, indices.reshape(-1), g.reshape(-1, shape[-1]))
            return full

        return self._unary(out, grad_fn, "gather_rows")

    @staticmethod
    def concat(tensors: Sequence["Tensor"], axis: int = -1) -> "Tensor":
        """Concatenate tensors along ``axis``."""
        datas = [t.data for t in tensors]
        out = np.concatenate(datas, axis=axis)
        sizes = [d.shape[axis] for d in datas]
        offsets = np.cumsum([0] + sizes)
        requires = any(t.requires_grad for t in tensors)

        def backward(grad: np.ndarray) -> None:
            for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    sl = [slice(None)] * grad.ndim
                    sl[axis] = slice(start, stop)
                    t._accumulate(grad[tuple(sl)])

        return Tensor(out, requires, tuple(tensors), backward, "concat")

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        """Stack tensors along a new ``axis``."""
        out = np.stack([t.data for t in tensors], axis=axis)
        requires = any(t.requires_grad for t in tensors)

        def backward(grad: np.ndarray) -> None:
            parts = np.split(grad, len(tensors), axis=axis)
            for t, part in zip(tensors, parts):
                if t.requires_grad:
                    t._accumulate(np.squeeze(part, axis=axis))

        return Tensor(out, requires, tuple(tensors), backward, "stack")

    @staticmethod
    def where(condition: np.ndarray, a: "Tensor", b: "Tensor") -> "Tensor":
        """Element-wise select; ``condition`` is a plain boolean array."""
        condition = np.asarray(condition, dtype=bool)
        out = np.where(condition, a.data, b.data)
        requires = a.requires_grad or b.requires_grad

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(np.where(condition, grad, 0.0))
            if b.requires_grad:
                b._accumulate(np.where(condition, 0.0, grad))

        return Tensor(out, requires, (a, b), backward, "where")


def as_tensor(value: ArrayLike) -> Tensor:
    """Wrap a value as a (non-differentiable) :class:`Tensor` if needed."""
    return value if isinstance(value, Tensor) else Tensor(value)
