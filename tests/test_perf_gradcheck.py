"""Property-based gradient sweep in both precisions.

Parametrizes finite-difference gradient verification over float64 (the
reference, tight tolerances) and float32 (the fast path, loose
tolerances from :func:`repro.tensor.gradcheck_tolerances`) for every
kernel the performance layer touches: spmm, the fused layer kernels,
all three paper aggregators (weighted, max-pooling, stochastic with
frozen gates) and the GC-FM layer.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.aggregators import (
    MaxPoolingAggregator,
    StochasticAggregator,
    StochasticGate,
    WeightedAggregator,
)
from repro.core.gcfm import GCFMLayer
from repro.perf.fused import (
    fused_dense_layer,
    fused_gcn_layer,
    fused_spmm_bias_act,
)
from repro.tensor import SparseMatrix, Tensor, default_dtype, gradcheck, spmm

DTYPES = [np.float64, np.float32]

N, D = 8, 4


def _adj(seed=0):
    rng = np.random.default_rng(seed)
    dense = (rng.random((N, N)) < 0.4).astype(float)
    dense = np.maximum(dense, dense.T)
    np.fill_diagonal(dense, 1.0)
    dense /= dense.sum(axis=1, keepdims=True)
    return SparseMatrix(sp.csr_matrix(dense))


def _tensor(shape, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


@pytest.fixture(params=DTYPES, ids=["float64", "float32"])
def dtype_ctx(request):
    with default_dtype(request.param):
        yield request.param


class TestSpmmGradients:
    def test_spmm(self, dtype_ctx):
        adj = _adj()
        h = _tensor((N, D), seed=1)
        assert h.data.dtype == dtype_ctx
        gradcheck(lambda: spmm(adj, h).sum(), [h])

    def test_fused_spmm_bias_act(self, dtype_ctx):
        adj = _adj()
        h = _tensor((N, D), seed=2)
        b = _tensor((D,), seed=3)
        gradcheck(
            lambda: (fused_spmm_bias_act(adj, h, b, activation="relu") ** 2).sum(),
            [h, b],
        )

    def test_fused_gcn_layer(self, dtype_ctx):
        adj = _adj()
        x = _tensor((N, D), seed=4)
        w = _tensor((D, 3), seed=5)
        b = _tensor((3,), seed=6)
        gradcheck(
            lambda: (fused_gcn_layer(adj, x, w, b, activation="relu") ** 2).sum(),
            [x, w, b],
        )

    def test_fused_dense_layer(self, dtype_ctx):
        x = _tensor((N, D), seed=7)
        w = _tensor((D, 3), seed=8)
        b = _tensor((3,), seed=9)
        gradcheck(
            lambda: (fused_dense_layer(x, w, b, activation="relu") ** 2).sum(),
            [x, w, b],
        )


class TestAggregatorGradients:
    def _hidden(self, count, seed=10):
        return [_tensor((N, D), seed=seed + i) for i in range(count)]

    def test_weighted_aggregator(self, dtype_ctx):
        adj = _adj()
        agg = WeightedAggregator(
            2, [D, D], N, rng=np.random.default_rng(0)
        )
        hidden = self._hidden(2)
        leaves = hidden + [agg.contributions] + [
            t.weight for t in agg.transforms
        ]
        gradcheck(lambda: (agg(adj, hidden) ** 2).sum(), leaves)

    def test_maxpool_aggregator(self, dtype_ctx):
        adj = _adj()
        agg = MaxPoolingAggregator(2, [D, D])
        hidden = self._hidden(2, seed=20)
        gradcheck(lambda: (agg(adj, hidden) ** 2).sum(), hidden)

    def test_stochastic_aggregator_frozen_gates(self, dtype_ctx):
        # eval mode: the Bernoulli samples are replaced by the activation
        # probabilities, so the forward is deterministic and the gradient
        # flows into the gate logits through Eq. (6).
        adj = _adj()
        gate = StochasticGate(N, 2)
        gate.logits.data[...] = np.random.default_rng(1).standard_normal(
            gate.logits.shape
        ) * 0.5
        agg = StochasticAggregator(2, [D, D], gate, rng=np.random.default_rng(2))
        agg.eval()
        hidden = self._hidden(2, seed=30)
        leaves = hidden + [gate.logits] + [t.weight for t in agg.transforms]
        gradcheck(lambda: (agg(adj, hidden) ** 2).sum(), leaves)


class TestGCFMGradients:
    def test_gcfm_layer(self, dtype_ctx):
        adj = _adj()
        layer = GCFMLayer([D, D], num_classes=3, fm_rank=2,
                          rng=np.random.default_rng(3))
        hidden = [_tensor((N, D), seed=40 + i, scale=0.5) for i in range(2)]
        leaves = hidden + [layer.linear_weight, layer.bias] + list(layer.factors)
        gradcheck(lambda: (layer(adj, hidden) ** 2).sum(), leaves)
