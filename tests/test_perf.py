"""Tests for the performance layer (``repro.perf``).

Covers the dtype policy, the cached ``SparseMatrix.T`` (regression: it
used to rebuild the CSR transpose on every access), the propagation
cache, the fused kernels, the model wiring, and the ``python -m repro
bench`` CLI contract (schema-valid JSON; ``--no-write`` leaves the tree
clean).
"""

import json
import pathlib

import numpy as np
import pytest
import scipy.sparse as sp

from repro.__main__ import main as cli_main
from repro.datasets import load_dataset
from repro.graphs.normalize import gcn_norm
from repro.models.convs import GraphConv
from repro.models.gcn import GCN
from repro.models.sgc import SGC
from repro.perf import (
    PropagationCache,
    array_fingerprint,
    configure,
    fused_dense_layer,
    fused_gcn_layer,
    fused_spmm_bias_act,
    get_cache,
    perf_mode,
    settings,
)
from repro.perf.bench import run_bench
from repro.tensor import (
    SparseMatrix,
    Tensor,
    default_dtype,
    get_default_dtype,
    gradcheck_tolerances,
    is_reference_dtype,
    set_default_dtype,
    spmm,
)
from repro.nn.module import Parameter


def _random_adj(n=12, seed=0):
    rng = np.random.default_rng(seed)
    dense = (rng.random((n, n)) < 0.3).astype(float)
    dense = np.maximum(dense, dense.T)
    np.fill_diagonal(dense, 0.0)
    return SparseMatrix(sp.csr_matrix(dense))


class _CountingCSR:
    """Stands in for ``SparseMatrix.csr``; counts ``csr @ x`` products."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def __matmul__(self, other):
        self.calls += 1
        return self.inner @ other


def _counting(adj):
    adj.fingerprint  # digest the real buffers before swapping them out
    adj.csr = _CountingCSR(adj.csr)
    return adj


# ----------------------------------------------------------------------
class TestDtypePolicy:
    def test_reference_default_is_float64(self):
        assert get_default_dtype() == np.float64
        assert is_reference_dtype()

    def test_context_manager_scopes_and_restores(self):
        with default_dtype("float32") as active:
            assert active == np.float32
            assert not is_reference_dtype()
            assert Tensor([1.0, 2.0]).data.dtype == np.float32
            assert Parameter(np.zeros(3)).data.dtype == np.float32
        assert get_default_dtype() == np.float64

    def test_float64_mode_preserves_float_arrays(self):
        # Reference mode must not copy or cast existing float arrays.
        payload = np.arange(4.0)
        assert Tensor(payload).data is payload
        low = np.arange(4.0, dtype=np.float32)
        assert Tensor(low).data is low

    def test_float32_mode_is_coercive(self):
        with default_dtype(np.float32):
            assert Tensor(np.arange(4.0)).data.dtype == np.float32
            assert SparseMatrix(np.eye(3)).dtype == np.float32

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(ValueError, match="unsupported"):
            set_default_dtype("int32")

    def test_gradcheck_tolerances_per_dtype(self):
        tight = gradcheck_tolerances(np.float64)
        loose = gradcheck_tolerances(np.float32)
        assert set(tight) == {"eps", "atol", "rtol"}
        assert loose["eps"] > tight["eps"]
        assert loose["atol"] > tight["atol"]

    def test_configure_roundtrip(self):
        previous = configure(dtype="float32", fused=True, propagation_cache=True)
        try:
            state = settings()
            assert state == {
                "dtype": "float32",
                "fused": True,
                "propagation_cache": True,
                "quantized_fallback": False,
            }
        finally:
            configure(**previous)
        assert settings()["fused"] is False
        assert get_default_dtype() == np.float64

    def test_no_kernels_switch(self):
        # Every sparse product is plain csr @ x; there is no switch.
        with pytest.raises(TypeError):
            with perf_mode(kernels=True):
                pass
        with pytest.raises(TypeError):
            configure(kernels=True)
        assert set(settings()) == {
            "dtype", "fused", "propagation_cache", "quantized_fallback",
        }


# ----------------------------------------------------------------------
class TestSparseTranspose:
    def test_transpose_cached_same_object(self):
        # Regression: .T used to rebuild the CSR transpose on every call.
        adj = _random_adj()
        first = adj.T
        assert adj.T is first
        assert adj.T is first  # stable across repeated accesses

    def test_double_transpose_is_original(self):
        adj = _random_adj()
        assert adj.T.T is adj

    def test_transpose_values(self):
        adj = _random_adj(seed=3)
        np.testing.assert_allclose(adj.T.todense(), adj.todense().T)

    def test_fingerprint_content_keyed(self):
        a = _random_adj(seed=1)
        b = _random_adj(seed=1)
        c = _random_adj(seed=2)
        assert a is not b
        assert a.fingerprint == b.fingerprint
        assert a.fingerprint != c.fingerprint
        # computed once, then cached
        assert a.fingerprint is a.fingerprint


# ----------------------------------------------------------------------
class TestPropagationCache:
    def test_propagate_matches_manual(self):
        adj = _random_adj()
        x = np.random.default_rng(0).random((12, 5))
        cache = PropagationCache()
        np.testing.assert_allclose(cache.propagate(adj, x, k=1), adj.csr @ x)
        np.testing.assert_allclose(
            cache.propagate(adj, x, k=3), adj.csr @ (adj.csr @ (adj.csr @ x))
        )

    def test_hit_and_miss_accounting(self):
        adj = _random_adj()
        x = np.random.default_rng(0).random((12, 5))
        cache = PropagationCache()
        cache.propagate(adj, x, k=1)
        assert (cache.hits, cache.misses) == (0, 1)
        cache.propagate(adj, x, k=1)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_content_keyed_across_instances(self):
        # Two independently built but equal operands share one entry.
        a, b = _random_adj(seed=5), _random_adj(seed=5)
        x = np.random.default_rng(0).random((12, 5))
        cache = PropagationCache()
        first = cache.propagate(a, x, k=1)
        second = cache.propagate(b, x, k=1)
        assert first is second
        assert cache.hits == 1 and len(cache) == 1

    def test_intermediate_powers_reused(self):
        adj = _random_adj()
        x = np.random.default_rng(0).random((12, 5))
        cache = PropagationCache()
        cache.propagate(adj, x, k=1)
        cache.propagate(adj, x, k=2)  # only one extra spmm, k=1 is a hit
        assert cache.hits == 1
        assert len(cache) == 2

    def test_results_are_read_only(self):
        adj = _random_adj()
        x = np.random.default_rng(0).random((12, 5))
        out = PropagationCache().propagate(adj, x, k=1)
        with pytest.raises(ValueError):
            out[0, 0] = 1.0

    def test_lru_eviction(self):
        adj = _random_adj()
        cache = PropagationCache(capacity=2)
        rng = np.random.default_rng(0)
        for _ in range(4):
            cache.propagate(adj, rng.random((12, 3)), k=1)
        assert len(cache) == 2

    def test_adjacency_power(self):
        adj = _random_adj()
        cache = PropagationCache()
        assert cache.adjacency_power(adj, 1) is adj
        squared = cache.adjacency_power(adj, 2)
        np.testing.assert_allclose(
            squared.todense(), adj.todense() @ adj.todense()
        )
        assert cache.adjacency_power(adj, 2) is squared  # cached

    def test_invalid_powers_rejected(self):
        adj = _random_adj()
        cache = PropagationCache()
        with pytest.raises(ValueError):
            cache.propagate(adj, np.zeros((12, 2)), k=0)
        with pytest.raises(ValueError):
            cache.adjacency_power(adj, -1)

    def test_clear_resets(self):
        adj = _random_adj()
        cache = PropagationCache()
        cache.propagate(adj, np.zeros((12, 2)), k=1)
        cache.clear()
        assert len(cache) == 0 and cache.info()["misses"] == 0

    def test_chain_longer_than_capacity(self):
        # Regression: the chain was re-read from the cache after the
        # walk, so a power evicted by the walk itself raised KeyError.
        adj = _random_adj()
        x = np.random.default_rng(0).random((12, 5))
        cache = PropagationCache(capacity=1)
        squared = cache.propagate(adj, x, k=2)
        assert np.array_equal(squared, adj.csr @ (adj.csr @ x))
        chain = cache.propagate_chain(adj, x, k=3)
        assert np.array_equal(chain[0], adj.csr @ x)
        assert np.array_equal(chain[1], squared)
        assert np.array_equal(chain[2], adj.csr @ squared)
        assert len(cache) == 1

    def test_evicted_lower_power_behind_warm_top(self):
        # Regression: with Â² X cached but Â X evicted, a warm k=2
        # request raised KeyError.  It must cost no spmm and return the
        # cached entry; the full chain recomputes the evicted power.
        adj = _counting(_random_adj())
        rng = np.random.default_rng(0)
        x, y, z = (rng.random((12, 3)) for _ in range(3))
        cache = PropagationCache(capacity=3)
        first = cache.propagate(adj, x, k=2)
        cache.propagate(adj, y, k=1)
        cache.propagate(adj, x, k=2)
        cache.propagate(adj, z, k=1)  # evicts Â X, keeps Â² X
        spmms = adj.csr.calls
        assert cache.propagate(adj, x, k=2) is first
        assert adj.csr.calls == spmms
        chain = cache.propagate_chain(adj, x, k=2)
        assert adj.csr.calls == spmms + 1
        assert np.array_equal(chain[0], adj.csr.inner @ x)
        assert chain[1] is first
        assert np.array_equal(first, adj.csr.inner @ (adj.csr.inner @ x))
        with pytest.raises(ValueError):
            chain[0][0, 0] = 1.0

    def test_lowest_power_bounds(self):
        adj = _random_adj()
        cache = PropagationCache()
        with pytest.raises(ValueError):
            cache.propagate_chain(adj, np.zeros((12, 2)), k=2, lowest=3)
        with pytest.raises(ValueError):
            cache.propagate_chain(adj, np.zeros((12, 2)), k=2, lowest=0)


# ----------------------------------------------------------------------
class TestFusedKernels:
    def _operands(self, seed=0):
        rng = np.random.default_rng(seed)
        adj = _random_adj(seed=seed)
        x = Tensor(rng.standard_normal((12, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        return adj, x, w, b

    def test_fused_gcn_layer_matches_unfused(self):
        adj, x, w, b = self._operands()
        fused = fused_gcn_layer(adj, x, w, b, activation="relu")
        unfused = (spmm(adj, x @ w) + b).relu()
        np.testing.assert_allclose(fused.data, unfused.data)

        fused.sum().backward()
        fused_grads = [t.grad.copy() for t in (x, w, b)]
        for t in (x, w, b):
            t.zero_grad()
        unfused.sum().backward()
        for got, t in zip(fused_grads, (x, w, b)):
            np.testing.assert_allclose(got, t.grad, atol=1e-12)

    def test_fused_spmm_bias_act_matches(self):
        adj, x, _, _ = self._operands(seed=1)
        b = Tensor(np.random.default_rng(2).standard_normal(6), requires_grad=True)
        fused = fused_spmm_bias_act(adj, x, b, activation="relu")
        unfused = (spmm(adj, x) + b).relu()
        np.testing.assert_allclose(fused.data, unfused.data)
        fused.sum().backward()
        got_x, got_b = x.grad.copy(), b.grad.copy()
        x.zero_grad(), b.zero_grad()
        unfused.sum().backward()
        np.testing.assert_allclose(got_x, x.grad, atol=1e-12)
        np.testing.assert_allclose(got_b, b.grad, atol=1e-12)

    def test_fused_dense_layer_matches(self):
        _, x, w, b = self._operands(seed=3)
        fused = fused_dense_layer(x, w, b, activation="relu")
        unfused = ((x @ w) + b).relu()
        np.testing.assert_allclose(fused.data, unfused.data)
        fused.sum().backward()
        got = [t.grad.copy() for t in (x, w, b)]
        for t in (x, w, b):
            t.zero_grad()
        unfused.sum().backward()
        for g, t in zip(got, (x, w, b)):
            np.testing.assert_allclose(g, t.grad, atol=1e-12)

    def test_no_activation_variant(self):
        adj, x, w, b = self._operands(seed=4)
        fused = fused_gcn_layer(adj, x, w, b, activation=None)
        unfused = spmm(adj, x @ w) + b
        np.testing.assert_allclose(fused.data, unfused.data)

    def test_unknown_activation_rejected(self):
        adj, x, w, b = self._operands()
        with pytest.raises(ValueError, match="activation"):
            fused_gcn_layer(adj, x, w, b, activation="tanh")

    def test_constant_inputs_build_no_tape(self):
        adj = _random_adj()
        x = Tensor(np.random.default_rng(0).random((12, 6)))
        w = Tensor(np.random.default_rng(1).random((6, 4)))
        out = fused_gcn_layer(adj, x, w, None, activation="relu")
        assert not out.requires_grad


# ----------------------------------------------------------------------
class TestModelWiring:
    def test_gcn_fast_path_matches_reference_predictions(self):
        graph = load_dataset("synthetic", scale=0.2)
        build = lambda: GCN(
            graph.num_features, 16, graph.num_classes,
            num_layers=2, dropout=0.3, seed=7,
        ).setup(graph)
        reference = build().predict()
        get_cache().clear()
        with perf_mode(dtype="float64"):  # fused + cached, same precision
            fast = build().predict()
        np.testing.assert_allclose(reference, fast, atol=1e-9)
        assert get_cache().misses >= 1

    def test_propagation_cache_shared_across_models(self):
        graph = load_dataset("synthetic", scale=0.2)
        get_cache().clear()
        with perf_mode(dtype="float64"):
            GCN(
                graph.num_features, 16, graph.num_classes, seed=0
            ).setup(graph).predict()
            misses = get_cache().misses
            GCN(
                graph.num_features, 16, graph.num_classes, seed=1
            ).setup(graph).predict()
        assert get_cache().misses == misses  # second model only hits
        assert get_cache().hits >= 1
        get_cache().clear()

    def test_sgc_uses_global_cache(self):
        graph = load_dataset("synthetic", scale=0.2)
        get_cache().clear()
        with perf_mode(dtype="float64"):
            model = SGC(graph.num_features, graph.num_classes, k_hops=2, seed=0)
            model.setup(graph)
        assert len(get_cache()) >= 2  # Â x and Â² x
        reference = SGC(graph.num_features, graph.num_classes, k_hops=2, seed=0)
        reference.setup(graph)
        np.testing.assert_allclose(
            model._propagated.data, reference._propagated.data, atol=1e-9
        )
        get_cache().clear()

    def test_dropout_active_input_skips_cache(self):
        # Training-mode dropout produces a fresh tensor, so the first
        # layer must NOT reuse the cached constant propagation.
        graph = load_dataset("synthetic", scale=0.2)
        model = GCN(
            graph.num_features, 16, graph.num_classes, dropout=0.5, seed=0
        ).setup(graph)
        get_cache().clear()
        with perf_mode(dtype="float64"):
            model.train()
            logits, _ = model.training_batch()
        assert logits.requires_grad
        # only predict()/eval-mode forwards populate the cache
        assert get_cache().misses == 0
        get_cache().clear()


# ----------------------------------------------------------------------
class TestBenchCLI:
    def _check_common(self, doc, kind):
        from repro.perf.bench import SCHEMA_INFER, SCHEMA_TRAIN

        expected = SCHEMA_TRAIN if kind == "train" else SCHEMA_INFER
        assert doc["schema"] == expected
        assert doc["units"] == "seconds"
        assert doc["dataset"] == "synthetic"
        assert set(doc["modes"]) == {"reference", "optimized"}
        for mode in doc["modes"].values():
            assert set(mode["models"]) == {"gcn", "sgc"}

    def test_run_bench_writes_schema_valid_json(self, tmp_path):
        result = run_bench(
            models=("gcn", "sgc"), epochs=2, repeats=2,
            scale=0.2, out_dir=str(tmp_path),
        )
        train_path = tmp_path / "BENCH_train.json"
        infer_path = tmp_path / "BENCH_infer.json"
        assert sorted(result["paths"]) == sorted(
            [str(train_path), str(infer_path)]
        )
        train = json.loads(train_path.read_text())
        infer = json.loads(infer_path.read_text())

        self._check_common(train, "train")
        self._check_common(infer, "infer")
        for mode in train["modes"].values():
            for stats in mode["models"].values():
                assert stats["mean_epoch_s"] > 0
                assert stats["total_s"] > 0
                assert stats["epochs_run"] == 2
        for mode in infer["modes"].values():
            for stats in mode["models"].values():
                assert stats["mean_call_s"] > 0
                assert stats["calls"] == 2
        assert set(train["speedup"]) == {"gcn", "sgc"}
        for entry in train["micro_ops"].values():
            assert entry["reference"]["mean_s"] > 0
            assert entry["optimized"]["mean_s"] > 0
            assert entry["speedup"] is not None

    def test_bench_cli_no_write_leaves_tree_clean(self, tmp_path):
        out_dir = tmp_path / "bench-out"
        out_dir.mkdir()
        code = cli_main([
            "bench", "synthetic", "--models", "sgc",
            "--epochs", "2", "--repeats", "2", "--scale", "0.2",
            "--out-dir", str(out_dir), "--no-write",
        ])
        assert code == 0
        assert list(out_dir.iterdir()) == []

    def test_bench_cli_writes_files(self, tmp_path):
        code = cli_main([
            "bench", "synthetic", "--models", "sgc",
            "--epochs", "2", "--repeats", "2", "--scale", "0.2",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "BENCH_train.json").exists()
        assert (tmp_path / "BENCH_infer.json").exists()


# ----------------------------------------------------------------------
class TestArrayFingerprint:
    def test_equal_content_equal_fingerprint(self):
        a = np.arange(12.0).reshape(3, 4)
        b = np.arange(12.0).reshape(3, 4)
        assert array_fingerprint(a) == array_fingerprint(b)

    def test_dtype_and_shape_distinguish(self):
        a = np.arange(12.0).reshape(3, 4)
        assert array_fingerprint(a) != array_fingerprint(a.astype(np.float32))
        assert array_fingerprint(a) != array_fingerprint(a.reshape(4, 3))
