"""Performance-regression guards for the ``repro.perf`` layer.

Marked ``bench`` (timing-sensitive), so they are excluded from the
default run by the ``-m 'not slow and not bench'`` addopts; run with::

    pytest benchmarks/test_perf_guard.py -m bench -q

The core guard enforces the point of the propagation cache: a cache hit
must never be slower than recomputing the propagation.  Timings use
best-of-N to shed scheduler noise.

Since PR 6 the repo also commits schema-versioned baseline reports
(``BENCH_train.json`` / ``BENCH_infer.json`` / ``BENCH_serve.json`` at
the repo root, regenerated with ``python -m repro bench`` and
``python -m repro bench --serve``).  The baseline guards compare a fresh
run's *speedup ratios* against the committed ones — ratios, unlike raw
milliseconds, transfer across machines — with a generous tolerance so
only a real regression (lost cache, broken coalescing, dtype fallback)
trips them, and keep the absolute floors as a machine-independent
backstop.
"""

import json
import pathlib
import time

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.graphs.normalize import gcn_norm
from repro.perf import PropagationCache, perf_mode
from repro.perf.bench import run_bench, run_serve_bench
from repro.perf.fused import fused_gcn_layer
from repro.tensor import Tensor, spmm

pytestmark = pytest.mark.bench

REPEATS = 30

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Committed baseline file -> required schema version.
BASELINE_SCHEMAS = {
    "BENCH_train.json": "repro.bench.train/v2",
    "BENCH_infer.json": "repro.bench.infer/v2",
    "BENCH_serve.json": "repro.bench.serve/v4",
}

#: A fresh speedup ratio may fall to this fraction of the committed one
#: before the guard trips — wide enough for machine-to-machine variance,
#: narrow enough to catch an optimization that silently stopped working.
BASELINE_TOLERANCE = 0.45


def load_baseline(name: str) -> dict:
    path = REPO_ROOT / name
    assert path.exists(), (
        f"committed baseline {name} missing; regenerate with "
        f"`python -m repro bench`{' --serve' if 'serve' in name else ''}"
    )
    data = json.loads(path.read_text(encoding="utf-8"))
    assert data.get("schema") == BASELINE_SCHEMAS[name], (
        f"{name} schema {data.get('schema')!r} != "
        f"{BASELINE_SCHEMAS[name]!r}; regenerate the baseline"
    )
    return data


def _best_of(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def operands():
    graph = load_dataset("synthetic")
    adj = gcn_norm(graph.adj)
    return graph, adj


def test_cached_propagation_not_slower_than_uncached(operands):
    graph, adj = operands
    x = graph.features
    cache = PropagationCache()
    cache.propagate(adj, x, k=2)  # warm the entry

    cached = _best_of(lambda: cache.propagate(adj, x, k=2))
    uncached = _best_of(lambda: adj.csr @ (adj.csr @ x))
    assert cached <= uncached, (
        f"cache hit ({1e6 * cached:.1f}µs) slower than recomputing "
        f"({1e6 * uncached:.1f}µs) — the propagation cache lost its point"
    )


def test_fused_layer_not_slower_than_unfused(operands):
    graph, adj = operands
    rng = np.random.default_rng(0)
    x = Tensor(graph.features)
    w = Tensor(rng.standard_normal((graph.num_features, 32)), requires_grad=True)
    b = Tensor(np.zeros(32), requires_grad=True)

    def unfused():
        (spmm(adj, x @ w) + b).relu().sum().backward()
        w.zero_grad()
        b.zero_grad()

    def fused():
        fused_gcn_layer(adj, x, w, b, activation="relu").sum().backward()
        w.zero_grad()
        b.zero_grad()

    unfused()  # warm BLAS
    fused()
    t_unfused = _best_of(unfused)
    t_fused = _best_of(fused)
    # 10% slack: the guard catches regressions, not timer jitter.
    assert t_fused <= t_unfused * 1.1, (
        f"fused layer ({1e6 * t_fused:.1f}µs) slower than unfused "
        f"({1e6 * t_unfused:.1f}µs)"
    )


def test_fast_path_epoch_speedup(operands):
    # The PR's headline acceptance: float32 + fused + cached training is
    # at least 1.5× faster per epoch than the float64 reference on the
    # synthetic benchmark (GCN, the canonical model).
    result = run_bench(models=("gcn",), epochs=8, repeats=10, write=False)
    speedup = result["train"]["speedup"]["gcn"]
    assert speedup is not None and speedup >= 1.5, (
        f"optimized epoch speedup {speedup}× below the 1.5× floor"
    )


def test_fast_path_inference_speedup(operands):
    result = run_bench(models=("gcn",), epochs=2, repeats=15, write=False)
    speedup = result["infer"]["speedup"]["gcn"]
    assert speedup is not None and speedup >= 1.5, (
        f"optimized inference speedup {speedup}× below the 1.5× floor"
    )


# ---------------------------------------------------------------------------
# Committed-baseline guards (BENCH_*.json at the repo root)
# ---------------------------------------------------------------------------

class TestCommittedBaselines:
    def test_baselines_present_and_schema_versioned(self):
        train = load_baseline("BENCH_train.json")
        assert {"modes", "speedup", "micro_ops"} <= set(train)
        infer = load_baseline("BENCH_infer.json")
        assert {"modes", "speedup"} <= set(infer)
        serve = load_baseline("BENCH_serve.json")
        assert {"latency", "concurrent_warm", "coalesce"} <= set(serve)
        assert serve["latency"]["warm"]["count"] > 0

    def test_train_and_infer_speedups_vs_baseline(self):
        base_train = load_baseline("BENCH_train.json")["speedup"]["gcn"]
        base_infer = load_baseline("BENCH_infer.json")["speedup"]["gcn"]
        result = run_bench(models=("gcn",), epochs=8, repeats=15, write=False)
        for kind, base in (("train", base_train), ("infer", base_infer)):
            current = result[kind]["speedup"]["gcn"]
            floor = base * BASELINE_TOLERANCE
            assert current is not None and current >= floor, (
                f"{kind} speedup {current}× fell below {floor:.2f}× "
                f"({BASELINE_TOLERANCE:.0%} of the committed {base}× "
                f"baseline in BENCH_{kind}.json)"
            )

    def test_serve_ratios_vs_baseline(self):
        baseline = load_baseline("BENCH_serve.json")
        base_warm = baseline["latency"]["speedup"]
        base_coalesce = baseline["coalesce"]["ratio"]
        result = run_serve_bench(
            repeats=50, cold_rounds=3, stampede_rounds=2, write=False
        )["serve"]
        warm = result["latency"]["speedup"]
        floor = base_warm * BASELINE_TOLERANCE
        assert warm >= floor, (
            f"warm/cold speedup {warm}× fell below {floor:.1f}× "
            f"({BASELINE_TOLERANCE:.0%} of the committed {base_warm}× "
            "baseline) — the logit store stopped paying for itself"
        )
        ratio = result["coalesce"]["ratio"]
        floor = base_coalesce * BASELINE_TOLERANCE
        assert ratio >= floor, (
            f"coalesced/stampede throughput ratio {ratio}× fell below "
            f"{floor:.1f}× ({BASELINE_TOLERANCE:.0%} of the committed "
            f"{base_coalesce}× baseline) — single-flight stopped coalescing"
        )


# ---------------------------------------------------------------------------
# Kernel-baseline guards (the `bench --kernels` block of BENCH_infer.json)
# ---------------------------------------------------------------------------

class TestKernelBaselines:
    """The committed kernels block must prove speed *and* equivalence.

    The fused-chain 1.5× floor is absolute (the PR's acceptance bar).
    """

    def test_committed_kernels_block_present(self):
        kernels = load_baseline("BENCH_infer.json")["kernels"]
        assert {"settings", "fused_power_chain",
                "restricted_eval", "quantized_fallback"} <= set(kernels)
        assert kernels["settings"]["k"] >= 3

    def test_committed_kernels_equivalence_flags(self):
        kernels = load_baseline("BENCH_infer.json")["kernels"]
        assert kernels["fused_power_chain"]["bitwise_identical"] is True
        assert kernels["restricted_eval"]["argmax_identical"] is True
        quant = kernels["quantized_fallback"]
        assert quant["argmax_identical"] is True
        assert quant["int8_weight_bytes"] < quant["float_weight_bytes"]

    def test_committed_kernels_speedup_floors(self):
        kernels = load_baseline("BENCH_infer.json")["kernels"]
        chain = kernels["fused_power_chain"]
        assert chain["spmms_fused"] < chain["spmms_sequential"]
        assert chain["speedup"] is not None and chain["speedup"] >= 1.5, (
            f"committed fused-chain speedup {chain['speedup']}× below the "
            "1.5× acceptance floor; regenerate with "
            "`python -m repro bench --kernels`"
        )
        restricted = kernels["restricted_eval"]
        assert restricted["speedup"] is not None and restricted["speedup"] > 1, (
            f"committed restricted-eval speedup {restricted['speedup']}× — "
            "a union micro-batch must be cheaper than a full forward"
        )

    def test_fresh_kernels_run_vs_baseline(self):
        from repro.perf.bench import run_kernels_bench

        baseline = load_baseline("BENCH_infer.json")["kernels"]
        result = run_kernels_bench(repeats=15, write=False)
        assert result["paths"] == []  # write=False must not touch disk
        fresh = result["kernels"]
        assert fresh["fused_power_chain"]["bitwise_identical"] is True
        assert fresh["restricted_eval"]["argmax_identical"] is True
        assert fresh["quantized_fallback"]["argmax_identical"] is True
        for block in ("fused_power_chain", "restricted_eval"):
            base = baseline[block]["speedup"]
            current = fresh[block]["speedup"]
            floor = base * BASELINE_TOLERANCE
            assert current is not None and current >= floor, (
                f"{block} speedup {current}× fell below {floor:.2f}× "
                f"({BASELINE_TOLERANCE:.0%} of the committed {base}× "
                "baseline in BENCH_infer.json)"
            )
