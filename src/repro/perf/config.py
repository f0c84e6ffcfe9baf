"""Runtime switches for the performance layer.

Four independent knobs, all off by default so the float64 reference
behaviour of the repository is untouched:

- **dtype** — the construction dtype policy
  (:mod:`repro.tensor.dtype`); float32 halves memory traffic and BLAS
  time on CPU.
- **fused** — models route eligible spmm→bias→activation sequences
  through the single-tape-node kernels in :mod:`repro.perf.fused`.
- **propagation cache** — models reuse memoized ``Â^k X`` products from
  :mod:`repro.perf.propcache` whenever the propagated operand is a
  constant of training.
- **quantized fallback** — newly fitted serving fallback heads
  (:class:`repro.serve.engine.ShallowFallback`) store their ridge
  weights int8-quantized.  This one *can* change logits (never the
  argmax on tier-1 data — verified at fit time), so it stays off even
  under :func:`perf_mode` and must be enabled explicitly.

Models read these flags through the accessor functions at forward time,
so flipping them affects existing model instances immediately; the dtype
policy, by contrast, only affects tensors constructed afterwards.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional

from repro.tensor.dtype import (
    Dtypeish,
    default_dtype_name,
    get_default_dtype,
    set_default_dtype,
)

_FUSED_ENABLED = False
_PROPCACHE_ENABLED = False
_QUANTIZED_FALLBACK = False


def fused_enabled() -> bool:
    """Whether models should use the fused forward kernels."""
    return _FUSED_ENABLED


def propagation_cache_enabled() -> bool:
    """Whether models should reuse memoized ``Â^k X`` products."""
    return _PROPCACHE_ENABLED


def quantized_fallback_enabled() -> bool:
    """Whether new serving fallback heads quantize their weights to int8."""
    return _QUANTIZED_FALLBACK


def configure(
    dtype: Optional[Dtypeish] = None,
    fused: Optional[bool] = None,
    propagation_cache: Optional[bool] = None,
    quantized_fallback: Optional[bool] = None,
) -> dict:
    """Set any subset of the switches; returns the previous settings.

    The return value can be splatted back into :func:`configure` to
    restore the prior state, which is how :func:`perf_mode` implements
    scoping.
    """
    global _FUSED_ENABLED, _PROPCACHE_ENABLED
    global _QUANTIZED_FALLBACK
    previous = {
        "dtype": get_default_dtype(),
        "fused": _FUSED_ENABLED,
        "propagation_cache": _PROPCACHE_ENABLED,
        "quantized_fallback": _QUANTIZED_FALLBACK,
    }
    if dtype is not None:
        set_default_dtype(dtype)
    if fused is not None:
        _FUSED_ENABLED = bool(fused)
    if propagation_cache is not None:
        _PROPCACHE_ENABLED = bool(propagation_cache)
    if quantized_fallback is not None:
        _QUANTIZED_FALLBACK = bool(quantized_fallback)
    return previous


def settings() -> dict:
    """Snapshot of the current switch values (for logs and bench JSON)."""
    return {
        "dtype": default_dtype_name(),
        "fused": _FUSED_ENABLED,
        "propagation_cache": _PROPCACHE_ENABLED,
        "quantized_fallback": _QUANTIZED_FALLBACK,
    }


def bit_settings() -> tuple:
    """``(dtype, fused, propagation_cache)`` as :func:`settings` has them.

    These are the switches that change computed bits, so serving keys
    memoized logits by them; this reads them without building a dict.
    """
    return default_dtype_name(), _FUSED_ENABLED, _PROPCACHE_ENABLED


@contextlib.contextmanager
def perf_mode(
    dtype: Dtypeish = "float32",
    fused: bool = True,
    propagation_cache: bool = True,
    quantized_fallback: Optional[bool] = None,
) -> Iterator[dict]:
    """Enable the full fast path for a block, restoring state on exit.

    ``with perf_mode():`` is the one-liner used by the bench harness and
    the equivalence tests; pass ``dtype="float64"`` to measure the
    cached/fused paths at reference precision.  The quantized
    fallback is *not* part of the default fast path (it perturbs logits,
    see the module docstring); pass ``quantized_fallback=True``
    explicitly to opt in.
    """
    previous = configure(
        dtype=dtype,
        fused=fused,
        propagation_cache=propagation_cache,
        quantized_fallback=quantized_fallback,
    )
    try:
        yield settings()
    finally:
        configure(**previous)
