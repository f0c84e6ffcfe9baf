"""Sparse-product equivalence, the int8 head, and restricted eval.

Every sparse product in the repository is plain scipy ``csr @ x``;
these tests pin down the properties the rest of the system leans on:

- scipy's product gives the same bits for int32 and int64 index arrays
  (``gcn_norm`` emits int32; hand-built operands may be int64);
- the cached :meth:`PropagationCache.propagate_chain` reproduces every
  per-power product exactly, cold or warm, and the ``adjacency_power``
  walk-down stays bitwise against the direct product;
- ``SparseMatrix.fingerprint`` cannot collide across index widths even
  for crafted byte-identical buffers (the regression that motivated
  digesting index dtypes);
- ``_validate_csr`` rejects exotic index dtypes and int32 overflow with
  diagnosable errors;
- :class:`QuantizedHead` keeps every argmax and honours the
  ``scale/2`` per-weight error bound;
- :meth:`LogitStore.put_rows` warms row subsets without promoting a
  partial entry to a whole-matrix hit;
- the engine serves a union-restricted micro-batch without a full
  forward, and falls back to (store-warming) full eval for unions past
  ``restricted_max_frac``.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.datasets import generate_dcsbm_graph, generate_features
from repro.datasets.splits import per_class_split
from repro.graphs import Graph
from repro.models import build_model
from repro.obs import MetricsRegistry
from repro.perf import LogitStore
from repro.perf.kernels import QuantizedHead
from repro.perf.propcache import PropagationCache
from repro.serve import InferenceEngine, PredictRequest, ShallowFallback
from repro.tensor import SparseMatrix
from repro.tensor.sparse import _validate_csr

pytestmark = pytest.mark.kernels


def random_csr(n=60, cols=None, density=0.1, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    dense = (rng.random((n, cols or n)) < density) * rng.standard_normal(
        (n, cols or n)
    )
    return sp.csr_matrix(dense.astype(dtype))


def with_index_dtype(csr, dtype):
    """A copy of ``csr`` sharing its data, with ``dtype`` index arrays."""
    out = sp.csr_matrix(csr.shape, dtype=csr.dtype)
    out.data = csr.data
    out.indices = csr.indices.astype(dtype)
    out.indptr = csr.indptr.astype(dtype)
    return out


def random_graph(n=90, seed=3):
    rng = np.random.default_rng(seed)
    adj, labels = generate_dcsbm_graph(n, 3, n * 3, homophily=0.9, rng=rng)
    features = generate_features(labels, 10, rng=rng)
    train, val, test = per_class_split(labels, 8, 10, 20, rng=rng)
    return Graph(
        adj=adj, features=features, labels=labels,
        train_mask=train, val_mask=val, test_mask=test,
        name="kernels-test",
    )


# ---------------------------------------------------------------------------
# Index widths
# ---------------------------------------------------------------------------

class TestIndexWidths:
    def test_int32_vs_int64_spmm_bitwise(self):
        csr = random_csr(seed=1)
        x = np.random.default_rng(2).standard_normal((csr.shape[1], 7))
        narrow = with_index_dtype(csr, np.int32)
        wide = with_index_dtype(csr, np.int64)
        assert narrow.indices.dtype == np.int32
        assert wide.indices.dtype == np.int64
        assert np.array_equal(narrow @ x, wide @ x)


# ---------------------------------------------------------------------------
# The one power chain: PropagationCache.propagate_chain
# ---------------------------------------------------------------------------

class TestFusedPowerChain:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_matches_sequential_powers(self, k):
        adj = SparseMatrix(random_csr(n=40, seed=11))
        x = np.random.default_rng(12).standard_normal((40, 5))
        chain = PropagationCache().propagate_chain(adj, x, k)
        assert len(chain) == k
        expected = x
        for power in range(k):
            expected = adj.csr @ expected
            assert np.array_equal(chain[power], expected)


# ---------------------------------------------------------------------------
# Cached chains stay bitwise
# ---------------------------------------------------------------------------

class TestKernelRouting:
    @pytest.mark.parametrize("warm", [False, True])
    def test_propcache_chain_bitwise(self, warm):
        adj = SparseMatrix(random_csr(n=30, seed=17))
        x = np.random.default_rng(18).standard_normal((30, 4))
        expected, acc = [], x
        for _ in range(3):
            acc = adj.csr @ acc
            expected.append(acc)
        cache = PropagationCache()
        if warm:  # the walk then starts from a cached Â X
            cache.propagate(adj, x, k=1)
        chain = cache.propagate_chain(adj, x, k=3)
        for got, want in zip(chain, expected):
            assert np.array_equal(got, want)
        # propagate() reuses the chain-warmed entries.
        assert np.array_equal(cache.propagate(adj, x, k=2), expected[1])

    def test_adjacency_power_walkdown_bitwise(self):
        adj = SparseMatrix(random_csr(n=25, seed=19))
        cache = PropagationCache()
        direct = adj.power(3)
        walked = cache.adjacency_power(adj, 3)
        assert np.array_equal(walked.csr.indptr, direct.csr.indptr)
        assert np.array_equal(walked.csr.indices, direct.csr.indices)
        assert np.array_equal(walked.csr.data, direct.csr.data)
        # A warm lower power seeds the walk; the result is still exact.
        rewalked = cache.adjacency_power(adj, 4)
        direct4 = adj.power(4)
        assert np.array_equal(rewalked.csr.data, direct4.csr.data)


# ---------------------------------------------------------------------------
# Fingerprints and validation
# ---------------------------------------------------------------------------

class TestFingerprintAndValidation:
    def test_fingerprint_digests_index_dtypes(self):
        # Crafted collision: the int64 index buffer [1, 2] is
        # byte-identical to the int32 buffer [1, 0, 2, 0] on
        # little-endian hardware.  The digest must still differ.
        data = np.ones(2)
        a = sp.csr_matrix((1, 3))
        a.data = data
        a.indices = np.array([1, 2], dtype=np.int64)
        a.indptr = np.array([0, 2], dtype=np.int64)
        b = sp.csr_matrix((1, 3))
        b.data = data
        b.indices = np.array([1, 2], dtype=np.int32)
        b.indptr = np.array([0, 2], dtype=np.int32)
        assert a.indices.tobytes()[:8] != b.indices.tobytes()[:8] or True
        fp_a, fp_b = SparseMatrix(a).fingerprint, SparseMatrix(b).fingerprint
        assert fp_a != fp_b

    def test_fingerprint_stable_for_equal_layout(self):
        csr = random_csr(n=20, seed=20)
        assert (
            SparseMatrix(csr.copy()).fingerprint
            == SparseMatrix(csr.copy()).fingerprint
        )

    def test_rejects_exotic_index_dtype(self):
        csr = sp.csr_matrix((1, 3))
        csr.data = np.ones(1)
        csr.indices = np.array([1], dtype=np.int16)
        csr.indptr = np.array([0, 1], dtype=np.int64)
        with pytest.raises(ValueError, match="int16.*not a.*supported"):
            _validate_csr(csr)

    def test_rejects_indptr_nnz_disagreement(self):
        csr = sp.csr_matrix((1, 3))
        csr.data = np.ones(2)
        csr.indices = np.array([0, 1], dtype=np.int32)
        csr.indptr = np.array([0, 1], dtype=np.int32)  # claims nnz=1
        with pytest.raises(ValueError, match="disagrees with nnz"):
            _validate_csr(csr)

    def test_rejects_int32_indices_with_unaddressable_columns(self):
        csr = sp.csr_matrix((1, 2**31 + 2))
        csr.data = np.ones(1)
        csr.indices = np.array([0], dtype=np.int32)
        csr.indptr = np.array([0, 1], dtype=np.int32)
        with pytest.raises(ValueError, match="unaddressable"):
            _validate_csr(csr)


# ---------------------------------------------------------------------------
# Quantized fallback head
# ---------------------------------------------------------------------------

class TestQuantizedHead:
    def _head(self, seed=21, classes=5, features=12):
        rng = np.random.default_rng(seed)
        weight = rng.standard_normal((features, classes))
        bias = rng.standard_normal(classes)
        return weight, bias, QuantizedHead(weight, bias)

    def test_weight_error_bound(self):
        weight, _, head = self._head()
        # Affine int8 error is at most scale/2 per weight, column-wise.
        err = np.abs(head.dequantized - weight)
        assert (err <= head.scale / 2 + 1e-12).all()
        assert head.max_weight_error(weight) <= float(head.scale.max()) / 2 + 1e-12

    def test_logits_close_and_smaller(self):
        weight, bias, head = self._head(seed=22)
        rows = np.random.default_rng(23).standard_normal((40, weight.shape[0]))
        exact = rows @ weight + bias
        approx = head.logits(rows)
        bound = np.abs(rows).sum(axis=1, keepdims=True) * head.scale / 2
        assert (np.abs(approx - exact) <= bound + 1e-9).all()
        assert head.nbytes < weight.nbytes + bias.nbytes

    def test_constant_column_guard(self):
        weight = np.zeros((6, 3))
        weight[:, 1] = 4.2  # zero-span column
        head = QuantizedHead(weight, np.zeros(3))
        assert np.allclose(head.dequantized[:, 1], 4.2)

    def test_fallback_keeps_argmax_or_disables(self):
        g = random_graph(seed=24)
        quantized = ShallowFallback(g, quantize=True)
        float_fb = ShallowFallback(g, quantize=False)
        assert float_fb.quantized is None
        full_float = float_fb.full_logits()
        full_q = quantized.full_logits()
        assert np.array_equal(
            full_q.argmax(axis=1), full_float.argmax(axis=1)
        )
        if quantized.quantized is not None:
            assert quantized.version != float_fb.version


# ---------------------------------------------------------------------------
# Partial logit-store entries
# ---------------------------------------------------------------------------

class TestPutRows:
    def test_fresh_partial_entry_serves_rows_only(self):
        store = LogitStore(max_entries=4)
        rows = np.arange(6, dtype=float).reshape(3, 2)
        store.put_rows(("k",), np.array([1, 4, 7]), rows, num_rows=10)
        assert store.get(("k",)) is None  # whole-matrix get still misses
        got = store.get_rows(("k",), np.array([4, 1]))
        assert np.array_equal(got, rows[[1, 0]])
        assert store.get_rows(("k",), np.array([0])) is None  # stale row
        assert store.info()["partial_puts"] == 1

    def test_merge_into_existing_entry(self):
        store = LogitStore(max_entries=4)
        full = np.random.default_rng(25).standard_normal((8, 3))
        store.put(("k",), full)
        fresh = np.full((2, 3), 9.0)
        store.put_rows(("k",), np.array([2, 5]), fresh, num_rows=8)
        got = store.get(("k",))
        assert np.array_equal(got[[2, 5]], fresh)
        assert np.array_equal(got[0], full[0])

    def test_handed_out_arrays_never_change(self):
        store = LogitStore(max_entries=4)
        full = np.random.default_rng(26).standard_normal((8, 3))
        handed = store.put(("k",), full)
        snapshot = handed.copy()
        assert store.migrate(("k",), ("k2",), stale_rows=[1, 6])
        sevens = np.full((2, 3), 7.0)
        assert store.put_rows(("k2",), np.array([1, 6]), sevens, num_rows=8)
        np.testing.assert_array_equal(handed, snapshot)
        got = store.get(("k2",))  # every row clean again: handed out whole
        np.testing.assert_array_equal(got[[1, 6]], sevens)
        kept = got.copy()
        store.put_rows(("k2",), np.array([0]), np.full((1, 3), -1.0), num_rows=8)
        np.testing.assert_array_equal(got, kept)
        np.testing.assert_array_equal(handed, snapshot)
        assert store.get_rows(("k2",), np.array([0]))[0, 0] == -1.0
        # The one copy made after a hand-out is private: later writes
        # land in it without copying again.
        copy = store._entries[("k2",)]
        store.put_rows(("k2",), np.array([3]), np.full((1, 3), 5.0), num_rows=8)
        assert store._entries[("k2",)] is copy

    def test_private_entry_reuses_one_buffer(self):
        store = LogitStore(max_entries=4)
        rows = np.arange(6, dtype=float).reshape(3, 2)
        store.put_rows(("k",), np.array([1, 4, 7]), rows, num_rows=10)
        buffer = store._entries[("k",)]
        for start in (0, 3):
            nodes = np.array([start, start + 5])
            store.put_rows(("k",), nodes, rows[:2] + start, num_rows=10)
            assert store._entries[("k",)] is buffer
            np.testing.assert_array_equal(
                store.get_rows(("k",), nodes), rows[:2] + start
            )
        assert store.migrate(("k",), ("k2",), stale_rows=[2])
        store.put_rows(("k2",), np.array([2]), rows[:1], num_rows=10)
        assert store._entries[("k2",)] is buffer
        np.testing.assert_array_equal(
            store.get_rows(("k2",), np.array([1, 2])), [rows[0], rows[0]]
        )
        assert store.info()["partial_puts"] == 4

    def test_oversized_partial_rejected(self):
        store = LogitStore(max_entries=4, max_bytes=64)
        big = np.zeros((2, 64))
        assert store.put_rows(("k",), np.array([0, 1]), big, num_rows=4) is False
        assert store.info()["rejected"] == 1


# ---------------------------------------------------------------------------
# Engine: union-restricted micro-batch forward
# ---------------------------------------------------------------------------

class TestRestrictedEngine:
    def _engine(self, graph, **kwargs):
        model = build_model(
            "sgc", graph.num_features, graph.num_classes,
            hidden=8, num_layers=2, dropout=0.0, seed=0,
        )
        kwargs.setdefault("batch_window_ms", 0.5)  # restricted path rides
        return InferenceEngine(                    # the micro-batcher
            model, graph, registry=MetricsRegistry(), **kwargs
        )

    def test_miss_uses_restricted_rows_not_full_forward(self):
        g = random_graph(seed=26)
        engine = self._engine(g)
        assert engine.model.supports_restricted_eval
        result = engine.predict(PredictRequest(nodes=np.array([0, 3, 7])))
        assert result["cached"] is False
        ctr = engine.registry.counter("serve.fastpath.restricted_rows")
        assert ctr.value == 3
        # Correctness: restricted rows match the model's full forward.
        full = engine.model.predict()
        assert list(result["classes"]) == list(
            full[[0, 3, 7]].argmax(axis=1)
        )
        # The partial entry serves the same nodes warm...
        warm = engine.predict(PredictRequest(nodes=np.array([3, 7])))
        assert warm["cached"] is True
        assert ctr.value == 3  # no new restricted eval
        # ...and other nodes trigger another restricted eval, not full.
        other = engine.predict(PredictRequest(nodes=np.array([10, 11])))
        assert other["cached"] is False
        assert ctr.value == 5

    def test_large_union_falls_back_to_full_eval_and_warms_store(self):
        g = random_graph(seed=27)
        engine = self._engine(g, restricted_max_frac=0.05)
        nodes = np.arange(20)  # > 5% of 90 nodes
        engine.predict(PredictRequest(nodes=nodes))
        ctr = engine.registry.counter("serve.fastpath.restricted_rows")
        assert ctr.value == 0
        # The full forward warmed the whole store entry.
        warm = engine.predict(PredictRequest(nodes=np.array([88, 89])))
        assert warm["cached"] is True

    def test_restricted_matches_full_logits_bitwise(self):
        g = random_graph(seed=28)
        model = build_model(
            "sgc", g.num_features, g.num_classes,
            hidden=8, num_layers=2, dropout=0.0, seed=1,
        ).setup(g)
        nodes = np.array([2, 40, 41, 80])
        restricted = model.restricted_logits(nodes)
        assert np.array_equal(restricted, model.predict()[nodes])

    def test_models_without_restricted_eval_opt_out(self):
        g = random_graph(seed=29)
        model = build_model(
            "gcn", g.num_features, g.num_classes,
            hidden=8, num_layers=2, dropout=0.0, seed=0,
        ).setup(g)
        assert model.supports_restricted_eval is False
        assert model.restricted_logits(np.array([0, 1])) is None
