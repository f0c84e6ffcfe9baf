"""The int8-quantized serving fallback head.

:class:`QuantizedHead` stores per-output-column scale/zero-point int8
weights for the serving fallback head; the dequantization error is
bounded by ``scale/2`` per weight, which keeps degraded logits
argmax-identical on the tier-1 datasets (verified at fit time by
:class:`repro.serve.engine.ShallowFallback`).

There is no separate spmm kernel: every sparse product ``Â @ X`` in
the repository is plain scipy ``csr @ x``.  A row-tiled int32 variant
gave the same bits and was no faster on any benchmark graph (see
docs/performance.md, "Raw kernels").
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

__all__ = ["QuantizedHead"]


def tiled_spmm(csr: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    """``csr @ x``.  Nothing in the package calls this; it stays only
    because ``perfbench/tracing.py`` binds ``repro.perf.kernels.tiled_spmm``
    by name and cannot start without it."""
    return csr @ x


# ----------------------------------------------------------------------
# int8 quantized linear head (serving fallback)
# ----------------------------------------------------------------------
class QuantizedHead:
    """Per-output-column int8 affine quantization of a linear head.

    ``W ≈ scale_c · (Q - zero_point_c)`` column by column, with ``Q``
    stored as int8 — an 8× smaller weight matrix than float64.  The
    absolute dequantization error of any weight is at most ``scale_c/2``
    (round-to-nearest over a 255-step grid spanning the column's range),
    so a logit computed from propagated rows ``p`` is off by at most
    ``‖p‖₁ · scale_c / 2 — the bound documented in docs/performance.md
    and checked by the fit-time argmax audit in ``ShallowFallback``.
    """

    __slots__ = ("q", "scale", "zero_point", "bias", "_dequantized")

    #: int8 grid: 255 usable steps, symmetric container.
    _QMIN, _QMAX = -128, 127

    def __init__(self, weight: np.ndarray, bias: np.ndarray) -> None:
        weight = np.asarray(weight, dtype=np.float64)
        if weight.ndim != 2:
            raise ValueError(
                f"quantized head needs a 2-D weight, got {weight.shape}"
            )
        lo = weight.min(axis=0)
        hi = weight.max(axis=0)
        span = hi - lo
        # A constant column quantizes exactly with any positive scale.
        span = np.where(span > 0, span, 1.0)
        self.scale = span / float(self._QMAX - self._QMIN)
        self.zero_point = np.round(
            self._QMIN - lo / self.scale
        ).astype(np.int32)
        q = np.round(weight / self.scale + self.zero_point)
        self.q = np.clip(q, self._QMIN, self._QMAX).astype(np.int8)
        self.bias = np.asarray(bias, dtype=np.float64)
        self._dequantized: Optional[np.ndarray] = None

    @property
    def dequantized(self) -> np.ndarray:
        """The float64 reconstruction ``scale · (Q - zero_point)``."""
        if self._dequantized is None:
            deq = (
                self.q.astype(np.float64) - self.zero_point
            ) * self.scale
            deq.setflags(write=False)
            self._dequantized = deq
        return self._dequantized

    def logits(self, rows: np.ndarray) -> np.ndarray:
        """``rows @ W_deq + b`` (one matmul over the requested rows)."""
        return rows @ self.dequantized + self.bias

    def max_weight_error(self, weight: np.ndarray) -> float:
        """Max abs deviation of the reconstruction from ``weight``."""
        return float(np.abs(self.dequantized - np.asarray(weight)).max())

    @property
    def nbytes(self) -> int:
        """Stored size: int8 weights + per-column scale/zero/bias."""
        return (
            self.q.nbytes
            + self.scale.nbytes
            + self.zero_point.nbytes
            + self.bias.nbytes
        )

    def __repr__(self) -> str:
        return (
            f"QuantizedHead(shape={self.q.shape}, nbytes={self.nbytes})"
        )
