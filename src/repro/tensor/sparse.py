"""Sparse operands for graph convolutions.

The normalized adjacency :math:`\\hat{A} = \\tilde{D}^{-1/2} \\tilde{A}
\\tilde{D}^{-1/2}` is a constant of the optimization problem, so it is
represented as a :class:`SparseMatrix` wrapping a scipy CSR matrix.  The
autograd-aware product :func:`spmm` propagates gradients only into the
dense operand (``grad_H = Âᵀ grad_out``), which is exactly what GCN
training needs and keeps the sparse structure out of the tape.

Because the operand is immutable, two derived quantities are computed at
most once per instance and then cached: the CSR transpose (``.T``, which
previously paid a full CSC→CSR conversion on every access) and a content
fingerprint used by :class:`repro.perf.PropagationCache` to share
``Â^k X`` products across model instances.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

from repro.tensor.dtype import get_default_dtype
from repro.tensor.tensor import Tensor, _as_tensor


#: Largest value an int32 index array can address.
_INT32_MAX = np.iinfo(np.int32).max

#: Index dtypes scipy's CSR products accept.  ``gcn_norm`` emits int32;
#: int64 gives the same bits at no measured cost; anything else — float
#: indices, int16, uint32 — is a construction error, not something to
#: coerce.
_INDEX_DTYPES = (np.dtype(np.int32), np.dtype(np.int64))


def _validate_csr(csr: "sp.csr_matrix") -> None:
    """Reject malformed CSR operands with a diagnosable ``ValueError``.

    Checks values (finite), column indices (non-negative, in bounds),
    index dtypes (int32 or int64 only), and int32 overflow: an
    int32-indexed matrix whose nnz or column count exceeds ``2^31 - 1``
    has already wrapped — ``indptr[-1]`` disagrees with the data length
    — and would fail deep inside scipy's C kernels otherwise.
    Hand-built ``csr_matrix((data, indices, indptr))`` operands bypass
    scipy's own construction checks, so this is the single choke point
    every :class:`SparseMatrix` passes through.
    """
    for name, index_array in (("indptr", csr.indptr), ("indices", csr.indices)):
        if index_array.dtype not in _INDEX_DTYPES:
            raise ValueError(
                f"sparse matrix {name} dtype {index_array.dtype} is not a "
                "supported index dtype; use int32 or int64"
            )
    nnz = int(csr.data.size)
    if int(csr.indptr[-1]) != nnz:
        detail = (
            " (int32 indptr overflow: nnz exceeds 2**31 - 1?)"
            if csr.indptr.dtype == np.int32 and nnz > _INT32_MAX
            else ""
        )
        raise ValueError(
            f"sparse matrix indptr[-1]={int(csr.indptr[-1])} disagrees "
            f"with nnz={nnz}{detail}"
        )
    if csr.indices.dtype == np.int32 and csr.shape[1] > _INT32_MAX + 1:
        raise ValueError(
            f"sparse matrix has int32 column indices but "
            f"{csr.shape[1]} columns; indices past 2**31 - 1 are "
            "unaddressable — rebuild with int64 indices"
        )
    if csr.data.size and not np.isfinite(csr.data).all():
        bad = int(np.count_nonzero(~np.isfinite(csr.data)))
        raise ValueError(
            f"sparse matrix contains {bad} non-finite (NaN/Inf) value(s); "
            "adjacency entries must be finite"
        )
    if csr.indices.size:
        lo = int(csr.indices.min())
        hi = int(csr.indices.max())
        if lo < 0:
            raise ValueError(
                f"sparse matrix has negative column index {lo}; "
                "indices must be >= 0"
            )
        if hi >= csr.shape[1]:
            raise ValueError(
                f"sparse matrix column index {hi} out of bounds for "
                f"shape {csr.shape}"
            )


class SparseMatrix:
    """An immutable sparse matrix operand (CSR) for message passing.

    Construction validates the operand — non-finite values (NaN/Inf),
    negative column indices, and out-of-bounds column indices are
    rejected with a clear ``ValueError`` naming the offense.  Without
    this, a malformed adjacency (a corrupt dataset file, a bad request
    payload) would sail into :func:`spmm` and fail deep inside scipy —
    or worse, silently poison every downstream logit with NaN.

    Parameters
    ----------
    matrix:
        Any scipy sparse matrix (converted to CSR) or a dense 2-D array.
        Values are stored in the policy default dtype
        (:func:`repro.tensor.dtype.get_default_dtype`).
    """

    __slots__ = ("csr", "_transpose", "_fingerprint")

    def __init__(self, matrix: Union[sp.spmatrix, np.ndarray]) -> None:
        dtype = get_default_dtype()
        if sp.issparse(matrix):
            csr = matrix.tocsr()
        else:
            dense = np.asarray(matrix, dtype=dtype)
            if dense.ndim != 2:
                raise ValueError(
                    f"SparseMatrix must be 2-dimensional, got ndim={dense.ndim}"
                )
            csr = sp.csr_matrix(dense)
        _validate_csr(csr)
        self.csr = csr.astype(dtype, copy=False)
        self._transpose: Optional["SparseMatrix"] = None
        self._fingerprint: Optional[str] = None

    @property
    def shape(self):
        return self.csr.shape

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    @property
    def dtype(self):
        return self.csr.dtype

    @property
    def T(self) -> "SparseMatrix":
        """The CSR transpose, built once on first access and cached.

        The transpose of the transpose is the original object, so
        repeated ``.T.T`` round-trips allocate nothing.
        """
        if self._transpose is None:
            transpose = SparseMatrix(self.csr.T)
            transpose._transpose = self
            self._transpose = transpose
        return self._transpose

    @property
    def fingerprint(self) -> str:
        """Content digest (dtypes, shape and CSR buffers), computed once.

        Two :class:`SparseMatrix` instances wrapping equal matrices have
        equal fingerprints, which is what lets the propagation cache
        share work across independently-normalized graph views.  The
        *index* dtypes are part of the digest alongside the data dtype:
        raw index bytes alone are ambiguous across widths (the int64
        buffer ``[1, 2]`` is byte-identical to the int32 buffer
        ``[1, 0, 2, 0]`` on little-endian hardware), so an int32-indexed
        and an int64-indexed copy of the same graph must not be able to
        collide in :class:`~repro.perf.PropagationCache` /
        :class:`~repro.perf.LogitStore` keys through a crafted buffer.
        """
        if self._fingerprint is None:
            digest = hashlib.sha1()
            digest.update(str(self.csr.dtype).encode())
            digest.update(str(self.csr.indptr.dtype).encode())
            digest.update(str(self.csr.indices.dtype).encode())
            digest.update(np.asarray(self.csr.shape, dtype=np.int64).tobytes())
            digest.update(np.ascontiguousarray(self.csr.indptr).tobytes())
            digest.update(np.ascontiguousarray(self.csr.indices).tobytes())
            digest.update(np.ascontiguousarray(self.csr.data).tobytes())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def inherit_fingerprint(self, parent: "SparseMatrix", change: str) -> None:
        """Fingerprint this matrix as ``parent`` after ``change``, in O(1).

        ``change`` must identify everything that differs from ``parent``
        (see :func:`repro.perf.propcache.derive_fingerprint`).  Only when
        ``parent``'s fingerprint is already known; otherwise this matrix
        hashes its own buffers on first use, as usual.
        """
        if parent._fingerprint is not None:
            from repro.perf.propcache import derive_fingerprint

            self._fingerprint = derive_fingerprint(parent._fingerprint, change)

    def __repr__(self) -> str:
        return f"SparseMatrix(shape={self.shape}, nnz={self.nnz})"

    def __matmul__(self, dense: Tensor) -> Tensor:
        return spmm(self, dense)

    def todense(self) -> np.ndarray:
        return np.asarray(self.csr.todense())

    def power(self, k: int) -> "SparseMatrix":
        """Return the k-th matrix power (used by SGC / MixHop)."""
        if k < 0:
            raise ValueError("power must be non-negative")
        result = sp.identity(self.shape[0], format="csr")
        base = self.csr
        for _ in range(k):
            result = result @ base
        return SparseMatrix(result)

    def rowsum(self) -> np.ndarray:
        return np.asarray(self.csr.sum(axis=1)).ravel()


def spmm(a: SparseMatrix, h: Tensor) -> Tensor:
    """Sparse–dense product ``a @ h`` with gradient ``aᵀ @ grad``.

    ``a`` is treated as a constant; gradients flow only to ``h``.
    """
    h = _as_tensor(h)
    out_data = a.csr @ h.data
    if not h._needs_tape():
        return Tensor(out_data)

    def backward_fn(grad: np.ndarray) -> None:
        h.accumulate_grad(a.csr.T @ grad)

    return Tensor(out_data, True, (h,), backward_fn, name="spmm")
