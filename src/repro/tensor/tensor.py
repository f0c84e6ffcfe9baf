"""Core autograd tensor.

The design is a vectorized reverse-mode tape: each :class:`Tensor` produced
by an operation stores its parents and a closure that, given the gradient
of the loss with respect to this tensor, accumulates gradients into the
parents.  ``Tensor.backward()`` runs the closures in reverse topological
order.

Gradients follow numpy broadcasting: when an operand was broadcast during
the forward pass, its gradient is summed back down to the original shape
(see :func:`unbroadcast`).
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.tensor.dtype import get_default_dtype

Arrayish = Union["Tensor", np.ndarray, float, int]

_GRAD_ENABLED = True

# Optional observer of backward execution, installed by the op profiler
# (:mod:`repro.obs.profiler`).  When set, ``Tensor.backward`` calls it as
# ``hook(op_name, seconds)`` after running each node's backward closure.
# When ``None`` (the default) the tape behaves exactly as before — the
# only cost is one ``None`` comparison per node.
_BACKWARD_HOOK: Optional[Callable[[str, float], None]] = None


def set_backward_hook(
    hook: Optional[Callable[[str, float], None]]
) -> Optional[Callable[[str, float], None]]:
    """Install (or clear, with ``None``) the tape's backward timing hook.

    Returns the previously installed hook so callers can restore it.
    """
    global _BACKWARD_HOOK
    previous = _BACKWARD_HOOK
    _BACKWARD_HOOK = hook
    return previous


def is_grad_enabled() -> bool:
    """Return whether new operations are currently recorded on the tape."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Context manager disabling tape recording (evaluation mode).

    Inside the block every operation produces plain result tensors with
    ``requires_grad=False`` and no backward closure, exactly like
    ``torch.no_grad``.
    """
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting.

    Broadcasting can (a) prepend dimensions and (b) stretch size-1 axes.
    Both are reversed by summation so that the chain rule holds for the
    original, unbroadcast operand.
    """
    if grad.shape == shape:
        return grad
    # Remove prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Collapse stretched size-1 axes.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: Arrayish, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=dtype if dtype is not None else get_default_dtype())


def _as_tensor(value: Arrayish) -> "Tensor":
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=get_default_dtype()))


class Tensor:
    """A numpy array with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Array-like payload; converted to the policy default dtype (see
        :mod:`repro.tensor.dtype`, float64 unless changed) unless it
        already is a float ndarray.  Under the float64 reference policy
        float ndarrays keep their dtype untouched; under a float32
        policy float64 payloads are cast down so the fast path threads
        through every construction site.
    requires_grad:
        Whether gradients should be accumulated into ``self.grad``.
    parents:
        Tensors this one was computed from (internal).
    backward_fn:
        Closure propagating ``self.grad`` into the parents (internal).
    name:
        Optional label used in ``repr`` and debugging.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "name")
    # Make numpy defer to Tensor.__radd__ etc. instead of elementwise-looping.
    __array_priority__ = 100.0

    def __init__(
        self,
        data: Arrayish,
        requires_grad: bool = False,
        parents: Sequence["Tensor"] = (),
        backward_fn: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        default = get_default_dtype()
        if not isinstance(data, np.ndarray):
            data = np.asarray(data, dtype=default)
        elif data.dtype.kind != "f":
            data = data.astype(default)
        elif data.dtype != default and default.itemsize < 8:
            # Coercive only below the float64 reference precision, so the
            # legacy "float arrays pass through untouched" behaviour is
            # preserved for the default policy.
            data = data.astype(default)
        self.data: np.ndarray = data
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._parents: Tuple["Tensor", ...] = tuple(parents) if _GRAD_ENABLED else ()
        self._backward_fn = backward_fn if _GRAD_ENABLED else None
        self.name = name

    # ------------------------------------------------------------------
    # Basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
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
        label = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{label})"

    def numpy(self) -> np.ndarray:
        """Return the underlying ndarray (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut off from the tape."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a leaf tensor with copied data (no graph history)."""
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    # ------------------------------------------------------------------
    # Graph construction / backward
    # ------------------------------------------------------------------
    def _needs_tape(self, *others: "Tensor") -> bool:
        if not _GRAD_ENABLED:
            return False
        return self.requires_grad or any(o.requires_grad for o in others)

    def accumulate_grad(self, grad: np.ndarray) -> None:
        """Add ``grad`` into ``self.grad``, allocating on first use."""
        if not self.requires_grad:
            return
        if self.grad is None:
            # One pass with the bits of ``zeros_like(data) += grad``: the
            # same −0.0 → +0.0, broadcast to ``data``'s shape and cast to
            # its dtype, without zero-filling the buffer first.
            self.grad = np.add(grad, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded tape.

        Parameters
        ----------
        grad:
            Gradient of the final objective w.r.t. this tensor.  Defaults
            to 1 for scalar tensors (the usual loss case).
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient is only valid "
                    f"for scalar tensors, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        order = self._topological_order()
        self.accumulate_grad(grad)
        # Seed explicitly so backward also works when this tensor itself
        # does not require grad but its parents do.
        seeds = {id(self): grad}
        hook = _BACKWARD_HOOK
        for node in order:
            node_grad = seeds.pop(id(node), None)
            if node_grad is None:
                node_grad = node.grad if node.requires_grad else None
            if node_grad is None or node._backward_fn is None:
                continue
            if hook is None:
                node._backward_fn(node_grad)
            else:
                start = time.perf_counter()
                node._backward_fn(node_grad)
                hook(node.name, time.perf_counter() - start)

    def _topological_order(self) -> list:
        """Nodes reachable from self, ordered so parents come after children."""
        visited = set()
        order: list = []
        stack = [(self, False)]
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
                if id(parent) not in visited:
                    stack.append((parent, False))
        # ``order`` is children-last; we want to process from the output
        # backwards, so reverse it.
        return list(reversed(order))

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: Arrayish) -> "Tensor":
        other = _as_tensor(other)
        out_data = self.data + other.data
        if not self._needs_tape(other):
            return Tensor(out_data)

        def backward_fn(grad: np.ndarray) -> None:
            self.accumulate_grad(unbroadcast(grad, self.shape))
            other.accumulate_grad(unbroadcast(grad, other.shape))

        return Tensor(out_data, True, (self, other), backward_fn, name="add")

    def __radd__(self, other: Arrayish) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        out_data = -self.data
        if not self._needs_tape():
            return Tensor(out_data)

        def backward_fn(grad: np.ndarray) -> None:
            self.accumulate_grad(-grad)

        return Tensor(out_data, True, (self,), backward_fn, name="neg")

    def __sub__(self, other: Arrayish) -> "Tensor":
        return self.__add__(_as_tensor(other).__neg__())

    def __rsub__(self, other: Arrayish) -> "Tensor":
        return _as_tensor(other).__sub__(self)

    def __mul__(self, other: Arrayish) -> "Tensor":
        other = _as_tensor(other)
        out_data = self.data * other.data
        if not self._needs_tape(other):
            return Tensor(out_data)

        def backward_fn(grad: np.ndarray) -> None:
            self.accumulate_grad(unbroadcast(grad * other.data, self.shape))
            other.accumulate_grad(unbroadcast(grad * self.data, other.shape))

        return Tensor(out_data, True, (self, other), backward_fn, name="mul")

    def __rmul__(self, other: Arrayish) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: Arrayish) -> "Tensor":
        other = _as_tensor(other)
        out_data = self.data / other.data
        if not self._needs_tape(other):
            return Tensor(out_data)

        def backward_fn(grad: np.ndarray) -> None:
            self.accumulate_grad(unbroadcast(grad / other.data, self.shape))
            other.accumulate_grad(
                unbroadcast(-grad * self.data / (other.data ** 2), other.shape)
            )

        return Tensor(out_data, True, (self, other), backward_fn, name="div")

    def __rtruediv__(self, other: Arrayish) -> "Tensor":
        return _as_tensor(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")
        out_data = self.data ** exponent
        if not self._needs_tape():
            return Tensor(out_data)

        def backward_fn(grad: np.ndarray) -> None:
            self.accumulate_grad(grad * exponent * self.data ** (exponent - 1))

        return Tensor(out_data, True, (self,), backward_fn, name="pow")

    def __matmul__(self, other: Arrayish) -> "Tensor":
        other = _as_tensor(other)
        out_data = self.data @ other.data
        if not self._needs_tape(other):
            return Tensor(out_data)

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(grad @ other.data.swapaxes(-1, -2))
            if other.requires_grad:
                other.accumulate_grad(self.data.swapaxes(-1, -2) @ grad)

        return Tensor(out_data, True, (self, other), backward_fn, name="matmul")

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        if not self._needs_tape():
            return Tensor(out_data)

        original = self.shape

        def backward_fn(grad: np.ndarray) -> None:
            self.accumulate_grad(grad.reshape(original))

        return Tensor(out_data, True, (self,), backward_fn, name="reshape")

    def transpose(self, axes: Optional[Sequence[int]] = None) -> "Tensor":
        out_data = self.data.transpose(axes)
        if not self._needs_tape():
            return Tensor(out_data)

        if axes is None:
            inverse = None
        else:
            inverse = np.argsort(axes)

        def backward_fn(grad: np.ndarray) -> None:
            self.accumulate_grad(grad.transpose(inverse))

        return Tensor(out_data, True, (self,), backward_fn, name="transpose")

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]
        if not self._needs_tape():
            return Tensor(out_data)

        def backward_fn(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            full = np.zeros_like(self.data)
            # add.at handles repeated indices correctly (scatter-add).
            np.add.at(full, index, grad)
            self.accumulate_grad(full)

        return Tensor(out_data, True, (self,), backward_fn, name="getitem")

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        if not self._needs_tape():
            return Tensor(out_data)

        def backward_fn(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self.accumulate_grad(np.broadcast_to(g, self.shape).copy())

        return Tensor(out_data, True, (self,), backward_fn, name="sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        """Max along ``axis``; gradient flows to (one of the) argmax entries."""
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        if not self._needs_tape():
            return Tensor(out_data)

        argmax = self.data.argmax(axis=axis)

        def backward_fn(grad: np.ndarray) -> None:
            g = grad if keepdims else np.expand_dims(grad, axis)
            full = np.zeros_like(self.data)
            np.put_along_axis(
                full, np.expand_dims(argmax, axis), np.asarray(g), axis=axis
            )
            self.accumulate_grad(full)

        return Tensor(out_data, True, (self,), backward_fn, name="max")

    # ------------------------------------------------------------------
    # Elementwise nonlinearities (methods; see repro.tensor.ops for the
    # free-function spelling used across the codebase)
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        out_data = np.maximum(self.data, 0.0)
        if not self._needs_tape():
            return Tensor(out_data)

        mask = self.data > 0

        def backward_fn(grad: np.ndarray) -> None:
            self.accumulate_grad(grad * mask)

        return Tensor(out_data, True, (self,), backward_fn, name="relu")

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        if not self._needs_tape():
            return Tensor(out_data)

        def backward_fn(grad: np.ndarray) -> None:
            self.accumulate_grad(grad * out_data)

        return Tensor(out_data, True, (self,), backward_fn, name="exp")

    def log(self) -> "Tensor":
        out_data = np.log(self.data)
        if not self._needs_tape():
            return Tensor(out_data)

        def backward_fn(grad: np.ndarray) -> None:
            self.accumulate_grad(grad / self.data)

        return Tensor(out_data, True, (self,), backward_fn, name="log")

    def sigmoid(self) -> "Tensor":
        # Numerically stable logistic.
        out_data = np.where(
            self.data >= 0,
            1.0 / (1.0 + np.exp(-np.clip(self.data, -500, None))),
            np.exp(np.clip(self.data, None, 500))
            / (1.0 + np.exp(np.clip(self.data, None, 500))),
        )
        if not self._needs_tape():
            return Tensor(out_data)

        def backward_fn(grad: np.ndarray) -> None:
            self.accumulate_grad(grad * out_data * (1.0 - out_data))

        return Tensor(out_data, True, (self,), backward_fn, name="sigmoid")

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)
        if not self._needs_tape():
            return Tensor(out_data)

        def backward_fn(grad: np.ndarray) -> None:
            self.accumulate_grad(grad * (1.0 - out_data ** 2))

        return Tensor(out_data, True, (self,), backward_fn, name="tanh")


def parameter(data: Arrayish, name: str = "") -> Tensor:
    """Create a trainable leaf tensor (``requires_grad=True``)."""
    t = Tensor(
        np.asarray(data, dtype=get_default_dtype()), requires_grad=True, name=name
    )
    return t
