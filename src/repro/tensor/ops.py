"""Free-function autograd operations.

These complement the methods on :class:`~repro.tensor.tensor.Tensor` with
operations that combine several tensors (``concat``, ``stack``), carry
state (``dropout``) or need numerically careful implementations
(``log_softmax``).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.tensor.tensor import Tensor, _as_tensor

_DEFAULT_RNG = np.random.default_rng(0)


def set_default_rng(rng: np.random.Generator) -> None:
    """Set the generator used by stochastic ops when none is passed."""
    global _DEFAULT_RNG
    _DEFAULT_RNG = rng


def relu(x: Tensor) -> Tensor:
    return _as_tensor(x).relu()


def leaky_relu(x: Tensor, negative_slope: float = 0.2) -> Tensor:
    """Leaky ReLU used by GAT's attention logits."""
    x = _as_tensor(x)
    out_data = np.where(x.data > 0, x.data, negative_slope * x.data)
    if not x._needs_tape():
        return Tensor(out_data)

    positive = x.data > 0

    def backward_fn(grad: np.ndarray) -> None:
        x.accumulate_grad(grad * np.where(positive, 1.0, negative_slope))

    return Tensor(out_data, True, (x,), backward_fn, name="leaky_relu")


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    x = _as_tensor(x)
    expm1 = np.expm1(np.clip(x.data, None, 50))
    out_data = np.where(x.data > 0, x.data, alpha * expm1)
    if not x._needs_tape():
        return Tensor(out_data)

    positive = x.data > 0

    def backward_fn(grad: np.ndarray) -> None:
        x.accumulate_grad(grad * np.where(positive, 1.0, alpha * (expm1 + 1.0)))

    return Tensor(out_data, True, (x,), backward_fn, name="elu")


def sigmoid(x: Tensor) -> Tensor:
    return _as_tensor(x).sigmoid()


def tanh(x: Tensor) -> Tensor:
    return _as_tensor(x).tanh()


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable ``log(softmax(x))`` along ``axis``."""
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_norm
    if not x._needs_tape():
        return Tensor(out_data)

    softmax_data = np.exp(out_data)

    def backward_fn(grad: np.ndarray) -> None:
        g = grad - softmax_data * grad.sum(axis=axis, keepdims=True)
        # Flush to zero, the rule CPU ML runtimes apply to float32: an
        # overconfident fit puts subnormal probabilities into the loss
        # gradient, and every matmul and spmm of the backward that touches
        # one runs several times slower.  Entries below the smallest normal
        # become a zero of the same sign; float64 reaches that only at
        # logit margins above about 708.
        np.multiply(g, 0, out=g, where=np.abs(g) < np.finfo(g.dtype).tiny)
        x.accumulate_grad(g)

    return Tensor(out_data, True, (x,), backward_fn, name="log_softmax")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` (implemented via stable log-softmax)."""
    return log_softmax(x, axis=axis).exp()


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` (autograd-aware)."""
    tensors = [_as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    if not any(t.requires_grad for t in tensors) or not tensors[0]._needs_tape(*tensors):
        return Tensor(out_data)

    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward_fn(grad: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(start, stop)
            t.accumulate_grad(grad[tuple(index)])

    return Tensor(out_data, True, tuple(tensors), backward_fn, name="concat")


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack same-shape tensors along a new axis (autograd-aware)."""
    tensors = [_as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)
    if not any(t.requires_grad for t in tensors) or not tensors[0]._needs_tape(*tensors):
        return Tensor(out_data)

    def backward_fn(grad: np.ndarray) -> None:
        slabs = np.moveaxis(grad, axis, 0)
        for t, slab in zip(tensors, slabs):
            t.accumulate_grad(slab)

    return Tensor(out_data, True, tuple(tensors), backward_fn, name="stack")


def dropout(
    x: Tensor,
    p: float,
    training: bool = True,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Inverted dropout: zero entries w.p. ``p`` and rescale by ``1/(1-p)``.

    At evaluation time (``training=False``) this is the identity, matching
    the usual deep-learning convention.

    Stream contract: a training call draws exactly ``x.size`` float64
    uniforms, ``rng.random(x.shape)`` in C order, whatever the dtype of
    ``x``, and keeps entry ``i`` iff ``u[i] >= p``.  A float32 run
    therefore consumes the same random sequence as its float64 twin and
    drops the same entries.  The result is ``(x * keep) * s`` with ``s``
    the scale ``1/(1-p)`` rounded once to ``x``'s dtype: bit for bit
    ``x * (keep / (1-p)).astype(dtype)``, signed zeros, NaN and ±inf
    included.
    """
    x = _as_tensor(x)
    if not training or p <= 0.0:
        return x
    if p >= 1.0:
        raise ValueError(f"dropout probability must be < 1, got {p}")
    if rng is None:
        rng = _DEFAULT_RNG
    keep = rng.random(x.shape) >= p
    # Rounded to x's dtype before the product, as the float mask was, even
    # for a numpy float64 ``p``.
    scale = x.data.dtype.type(1.0 / (1.0 - p))
    out_data = x.data * keep
    out_data *= scale
    if not x._needs_tape():
        return Tensor(out_data)

    def backward_fn(grad: np.ndarray) -> None:
        masked = grad * keep
        masked *= scale
        x.accumulate_grad(masked)

    return Tensor(out_data, True, (x,), backward_fn, name="dropout")


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max of two tensors; ties send the gradient to ``a``."""
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = np.maximum(a.data, b.data)
    if not a._needs_tape(b):
        return Tensor(out_data)

    a_wins = a.data >= b.data

    def backward_fn(grad: np.ndarray) -> None:
        from repro.tensor.tensor import unbroadcast

        a.accumulate_grad(unbroadcast(grad * a_wins, a.shape))
        b.accumulate_grad(unbroadcast(grad * ~a_wins, b.shape))

    return Tensor(out_data, True, (a, b), backward_fn, name="maximum")


def scatter_rows(values: Tensor, index: np.ndarray, num_rows: int) -> Tensor:
    """Scatter-add rows of ``values`` into a ``(num_rows, D)`` tensor.

    ``out[index[k]] += values[k]`` — the adjoint of row gathering, used by
    edge-wise message passing (GAT) to aggregate messages per target node.
    """
    values = _as_tensor(values)
    out_data = np.zeros((num_rows,) + values.shape[1:], dtype=values.data.dtype)
    np.add.at(out_data, index, values.data)
    if not values._needs_tape():
        return Tensor(out_data)

    def backward_fn(grad: np.ndarray) -> None:
        values.accumulate_grad(grad[index])

    return Tensor(out_data, True, (values,), backward_fn, name="scatter_rows")


def segment_softmax(logits: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Softmax over variable-size segments (edges grouped by target node).

    This is the attention normalization in GAT: each edge logit is
    normalized against the other edges pointing at the same target node.
    ``segment_ids`` must map each row of ``logits`` to its segment.
    """
    logits = _as_tensor(logits)
    data = logits.data
    # Stable per-segment max.
    seg_max = np.full((num_segments,) + data.shape[1:], -np.inf, dtype=data.dtype)
    np.maximum.at(seg_max, segment_ids, data)
    shifted = data - seg_max[segment_ids]
    exp = np.exp(shifted)
    denom = np.zeros((num_segments,) + data.shape[1:], dtype=data.dtype)
    np.add.at(denom, segment_ids, exp)
    out_data = exp / denom[segment_ids]
    if not logits._needs_tape():
        return Tensor(out_data)

    def backward_fn(grad: np.ndarray) -> None:
        # d softmax_i = softmax_i * (grad_i - sum_j softmax_j grad_j) per segment
        weighted = out_data * grad
        seg_sum = np.zeros((num_segments,) + grad.shape[1:], dtype=grad.dtype)
        np.add.at(seg_sum, segment_ids, weighted)
        logits.accumulate_grad(out_data * (grad - seg_sum[segment_ids]))

    return Tensor(out_data, True, (logits,), backward_fn, name="segment_softmax")
