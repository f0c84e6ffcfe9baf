"""Floating-point dtype policy for the autograd substrate.

Everything in the stack historically computed in float64.  That remains
the default (and the *reference* precision: gradcheck tolerances, paper
tables and checkpoint formats all assume it), but a process-wide policy
can switch new tensors, parameters, sparse operands and initializers to
float32 — the fast path exercised by ``repro.perf`` and the
``python -m repro bench`` harness.  On CPU BLAS, float32 roughly halves
both memory traffic and matmul time.

The policy deliberately affects only *construction*: existing tensors
keep their dtype, and float64 mode preserves the legacy behaviour
bit-for-bit (float arrays passed to :class:`Tensor` are never copied or
cast).  Under float32 the policy is coercive — float64 payloads are cast
down on construction so a model built inside :func:`default_dtype`
stays float32 end to end without touching call sites.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Union

import numpy as np

Dtypeish = Union[str, type, np.dtype]

_FLOAT64 = np.dtype(np.float64)
_FLOAT32 = np.dtype(np.float32)
_SUPPORTED = (_FLOAT32, _FLOAT64)
# Formatting a numpy dtype costs microseconds; per-request callers
# (the serving store key) read the name from here instead.
_NAMES = {dtype: str(dtype) for dtype in _SUPPORTED}

_DEFAULT_DTYPE = _FLOAT64


def _resolve(dtype: Dtypeish) -> np.dtype:
    resolved = np.dtype(dtype)
    if resolved not in _SUPPORTED:
        raise ValueError(
            f"unsupported default dtype {dtype!r}; "
            f"choose float32 or float64"
        )
    return resolved


def get_default_dtype() -> np.dtype:
    """The dtype new tensors/parameters/sparse operands are built with."""
    return _DEFAULT_DTYPE


def default_dtype_name() -> str:
    """``str(get_default_dtype())``, e.g. ``"float32"``."""
    return _NAMES[_DEFAULT_DTYPE]


def set_default_dtype(dtype: Dtypeish) -> np.dtype:
    """Set the process-wide construction dtype; returns the previous one.

    Accepts ``"float32"``/``"float64"``, numpy scalar types or dtypes.
    """
    global _DEFAULT_DTYPE
    previous = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = _resolve(dtype)
    return previous


@contextlib.contextmanager
def default_dtype(dtype: Dtypeish) -> Iterator[np.dtype]:
    """Context manager scoping :func:`set_default_dtype` to a block."""
    previous = set_default_dtype(dtype)
    try:
        yield _DEFAULT_DTYPE
    finally:
        set_default_dtype(previous)


def is_reference_dtype() -> bool:
    """True while the policy is the float64 reference precision."""
    return _DEFAULT_DTYPE == _FLOAT64


def gradcheck_tolerances(dtype: Dtypeish = None) -> dict:
    """Finite-difference settings appropriate for ``dtype``.

    float64 keeps the historical tight defaults.  float32 needs a much
    larger probe step (the loss itself only carries ~7 significant
    digits, so a 1e-6 step would be swallowed by rounding) and looser
    accept thresholds.
    """
    resolved = _resolve(dtype) if dtype is not None else get_default_dtype()
    if resolved == _FLOAT32:
        return {"eps": 1e-2, "atol": 5e-2, "rtol": 5e-2}
    return {"eps": 1e-6, "atol": 1e-5, "rtol": 1e-4}
