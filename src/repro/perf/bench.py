"""The ``python -m repro bench`` harness.

Measures the repository's performance trajectory in three tiers —

1. **micro-ops**: the raw kernels (spmm, one fused vs unfused GCN layer
   forward+backward, cached vs recomputed propagation);
2. **training**: mean per-epoch train-step time for each model over a
   fixed epoch budget (no early stopping, so reference and optimized
   runs do identical work);
3. **inference**: repeated full-graph ``predict()`` calls —

each in two modes: *reference* (float64, unfused, uncached: the
repository's historical behaviour, bit-for-bit) and *optimized* (the
full :func:`repro.perf.perf_mode` fast path).  Results are written as
``BENCH_train.json`` and ``BENCH_infer.json``; ``docs/performance.md``
explains how to read them.

``python -m repro bench --serve`` runs the *serving* benchmark instead
(:func:`run_serve_bench` → ``BENCH_serve.json``): cold vs warm
``predict()`` latency through the version-keyed logit store, warm tail
latencies under concurrent load, and coalesced (single-flight) vs
stampede (every thread pays a forward) throughput.

All timings come from the PR-1 observability instruments
(:class:`repro.obs.metrics.Histogram` via a private registry), so the
summaries carry the same count/mean/p50/p95 fields as the run logs.
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import Dict, Optional, Sequence

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.perf import config as perf_config
from repro.perf import propcache
from repro.perf.fused import fused_gcn_layer

# train v2 = v1 (settings/modes/speedup/micro_ops unchanged) + the
# optional "sharded" block written by `bench --sharded`.
SCHEMA_TRAIN = "repro.bench.train/v2"
# infer v2 = v1 (settings/modes/speedup unchanged) + the optional
# "kernels" block from `bench --kernels` (propagation chain,
# union-restricted eval, quantized fallback).
SCHEMA_INFER = "repro.bench.infer/v2"
# serve v2 = v1 (latency/concurrent_warm/coalesce blocks unchanged) + the
# optional "fleet" block measured over HTTP with --workers N.
# serve v3 = v2 + the optional "sharded" block from `bench --sharded`.
# serve v4 = v3 + the optional "mutate" block from `bench --mutate`
# (WAL-backed update-apply latency, incremental vs full maintenance).
SCHEMA_SERVE = "repro.bench.serve/v4"
DEFAULT_MODELS = ("gcn", "sgc", "lasagne")

#: perf-switch settings of the two benchmark modes.
MODES = {
    "reference": {
        "dtype": "float64", "fused": False,
        "propagation_cache": False,
    },
    "optimized": {
        "dtype": "float32", "fused": True,
        "propagation_cache": True,
    },
}


def _summary(histogram) -> Dict[str, float]:
    stats = histogram.summary()
    return {
        "count": int(stats["count"]),
        "total_s": stats["total"],
        "mean_s": stats["mean"],
        "p50_s": stats["p50"],
        "p95_s": stats["p95"],
        "min_s": stats["min"],
        "max_s": stats["max"],
    }


def _speedup(reference: Optional[float], optimized: Optional[float]) -> Optional[float]:
    if not reference or not optimized:
        return None
    return round(reference / optimized, 3)


def _preserve_sharded(
    path: pathlib.Path, doc: dict, keys=("sharded", "mutate")
) -> dict:
    """Carry committed optional blocks (``keys``) into ``doc``.

    The sharded/mutate/kernels benchmarks (``bench --sharded`` /
    ``--mutate`` / ``--kernels``) are separate runs; a plain ``bench``
    rewrite must not silently drop their committed results.
    """
    missing = [key for key in keys if key not in doc]
    if missing and path.exists():
        try:
            previous = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return doc
        if isinstance(previous, dict):
            for key in missing:
                if key in previous:
                    doc[key] = previous[key]
    return doc


def _build(name: str, graph, hp, seed: int):
    from repro.core import Lasagne
    from repro.models import build_model

    if name == "lasagne":
        return Lasagne(
            graph.num_features, hp.hidden, graph.num_classes,
            num_layers=4, aggregator="weighted",
            dropout=hp.dropout, fm_rank=hp.fm_rank, seed=seed,
        )
    return build_model(
        name, graph.num_features, graph.num_classes,
        hidden=hp.hidden, num_layers=2, dropout=hp.dropout, seed=seed,
    )


# ----------------------------------------------------------------------
def _micro_ops(graph, repeats: int, registry: MetricsRegistry) -> Dict[str, dict]:
    """Kernel-level timings, reference vs optimized, plus the cache guard
    numbers (cached propagate vs recomputed spmm at equal dtype)."""
    from repro.graphs.normalize import gcn_norm
    from repro.nn import init as init_schemes
    from repro.tensor.tensor import Tensor

    results: Dict[str, dict] = {}
    for mode, settings in MODES.items():
        with perf_config.perf_mode(**settings):
            adj = gcn_norm(graph.adj)
            x = Tensor(graph.features)
            rng = np.random.default_rng(0)
            weight = Tensor(
                init_schemes.glorot_uniform((graph.num_features, 32), rng),
                requires_grad=True,
            )
            bias = Tensor(init_schemes.zeros((32,)), requires_grad=True)

            spmm_timer = registry.timer(f"micro.spmm.{mode}")
            for _ in range(repeats):
                with spmm_timer:
                    adj.csr @ x.data

            unfused_timer = registry.timer(f"micro.layer_unfused.{mode}")
            for _ in range(repeats):
                with unfused_timer:
                    out = (adj @ (x @ weight) + bias).relu()
                    out.sum().backward()
                weight.zero_grad()
                bias.zero_grad()

            fused_timer = registry.timer(f"micro.layer_fused.{mode}")
            for _ in range(repeats):
                with fused_timer:
                    out = fused_gcn_layer(adj, x, weight, bias, activation="relu")
                    out.sum().backward()
                weight.zero_grad()
                bias.zero_grad()

            # Cache guard pair: a hit must beat recomputing the spmm.
            cache = propcache.PropagationCache()
            cache.propagate(adj, x.data, k=2)  # warm
            cached_timer = registry.timer(f"micro.propagate_cached.{mode}")
            for _ in range(repeats):
                with cached_timer:
                    cache.propagate(adj, x.data, k=2)
            uncached_timer = registry.timer(f"micro.propagate_uncached.{mode}")
            for _ in range(repeats):
                with uncached_timer:
                    adj.csr @ (adj.csr @ x.data)

        results.setdefault("spmm_forward", {})[mode] = _summary(spmm_timer.histogram)
        results.setdefault("gcn_layer_unfused", {})[mode] = _summary(
            unfused_timer.histogram
        )
        results.setdefault("gcn_layer_fused", {})[mode] = _summary(
            fused_timer.histogram
        )
        results.setdefault("propagate_cached", {})[mode] = _summary(
            cached_timer.histogram
        )
        results.setdefault("propagate_uncached", {})[mode] = _summary(
            uncached_timer.histogram
        )
    for entry in results.values():
        entry["speedup"] = _speedup(
            entry["reference"]["mean_s"], entry["optimized"]["mean_s"]
        )
    return results


# ----------------------------------------------------------------------
def _train_mode(
    graph, hp, models: Sequence[str], epochs: int, seed: int
) -> Dict[str, dict]:
    from repro.training import TrainConfig, Trainer

    # patience = epochs: no early stopping, so both modes run the exact
    # same number of train steps and the comparison is like-for-like.
    config = TrainConfig(
        lr=hp.lr, weight_decay=hp.weight_decay,
        epochs=epochs, patience=epochs, seed=seed,
    )
    out: Dict[str, dict] = {}
    for name in models:
        model = _build(name, graph, hp, seed)
        result = Trainer(config).fit(model, graph)
        times = result.epoch_times
        steady = times[1:] if len(times) > 1 else times  # drop warm-up epoch
        out[name] = {
            "epochs_run": result.epochs_run,
            "mean_epoch_s": float(np.mean(steady)),
            "p50_epoch_s": float(np.median(steady)),
            "total_s": float(np.sum(times)),
            "best_val_acc": result.best_val_acc,
        }
    return out


def _infer_mode(
    graph, hp, models: Sequence[str], repeats: int, seed: int,
    registry: MetricsRegistry, mode: str,
) -> Dict[str, dict]:
    out: Dict[str, dict] = {}
    for name in models:
        model = _build(name, graph, hp, seed).setup(graph)
        model.predict()  # warm caches and BLAS
        timer = registry.timer(f"infer.{name}.{mode}")
        for _ in range(repeats):
            with timer:
                model.predict()
        stats = _summary(timer.histogram)
        out[name] = {
            "calls": stats["count"],
            "mean_call_s": stats["mean_s"],
            "p50_call_s": stats["p50_s"],
            "total_s": stats["total_s"],
        }
    return out


# ----------------------------------------------------------------------
def run_bench(
    dataset: str = "synthetic",
    models: Sequence[str] = DEFAULT_MODELS,
    epochs: int = 10,
    repeats: int = 20,
    scale: Optional[float] = None,
    seed: int = 0,
    out_dir: str = ".",
    write: bool = True,
) -> dict:
    """Run the full benchmark; returns (and optionally writes) both docs.

    The returned dict has keys ``train``, ``infer`` (the two JSON
    documents) and ``paths`` (written files; empty when ``write`` is
    False, in which case the filesystem is untouched).
    """
    from repro.datasets import load_dataset
    from repro.training import hyperparams_for

    graph = load_dataset(dataset, scale=scale, seed=seed)
    hp = hyperparams_for(dataset)
    registry = MetricsRegistry()
    settings = {
        "models": list(models),
        "epochs": epochs,
        "repeats": repeats,
        "scale": scale,
        "seed": seed,
        "num_nodes": graph.num_nodes,
        "num_edges": int(graph.adj.nnz // 2),
        "num_features": graph.num_features,
    }

    micro = _micro_ops(graph, repeats, registry)

    train_modes: Dict[str, dict] = {}
    infer_modes: Dict[str, dict] = {}
    for mode, mode_settings in MODES.items():
        with perf_config.perf_mode(**mode_settings):
            train_modes[mode] = {
                "perf": perf_config.settings(),
                "models": _train_mode(graph, hp, models, epochs, seed),
            }
            infer_modes[mode] = {
                "perf": perf_config.settings(),
                "models": _infer_mode(
                    graph, hp, models, repeats, seed, registry, mode
                ),
            }

    train_doc = {
        "schema": SCHEMA_TRAIN,
        "dataset": dataset,
        "units": "seconds",
        "settings": settings,
        "modes": train_modes,
        "speedup": {
            name: _speedup(
                train_modes["reference"]["models"][name]["mean_epoch_s"],
                train_modes["optimized"]["models"][name]["mean_epoch_s"],
            )
            for name in models
        },
        "micro_ops": micro,
    }
    infer_doc = {
        "schema": SCHEMA_INFER,
        "dataset": dataset,
        "units": "seconds",
        "settings": settings,
        "modes": infer_modes,
        "speedup": {
            name: _speedup(
                infer_modes["reference"]["models"][name]["mean_call_s"],
                infer_modes["optimized"]["models"][name]["mean_call_s"],
            )
            for name in models
        },
    }

    paths = []
    if write:
        out = pathlib.Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for stem, doc in (("BENCH_train", train_doc), ("BENCH_infer", infer_doc)):
            path = out / f"{stem}.json"
            if stem == "BENCH_train":
                doc = _preserve_sharded(path, doc)
            else:
                doc = _preserve_sharded(path, doc, keys=("kernels",))
            path.write_text(json.dumps(doc, indent=2) + "\n")
            paths.append(str(path))
    return {"train": train_doc, "infer": infer_doc, "paths": paths}


# ----------------------------------------------------------------------
def run_serve_bench(
    dataset: str = "synthetic",
    model: str = "lasagne",
    repeats: int = 200,
    cold_rounds: int = 5,
    concurrency: int = 8,
    stampede_rounds: int = 3,
    workers: int = 0,
    scale: Optional[float] = None,
    seed: int = 0,
    out_dir: str = ".",
    write: bool = True,
) -> dict:
    """Benchmark the serving fast path; writes ``BENCH_serve.json``.

    Three measurements, all at the engine level (no HTTP, so the numbers
    isolate the fast path from socket noise):

    - **cold vs warm latency** — a single-node ``predict()`` with the
      logit store cleared (pays the full-graph forward) vs warm (a pure
      row lookup);
    - **warm tail latency under concurrency** — ``concurrency`` threads
      hammering warm single-node predicts, per-request p50/p95/p99;
    - **coalesced vs stampede throughput** — per round, ``concurrency``
      threads released by a barrier into a *cold* store: single-flight
      coalesces them onto one forward, while a ``fastpath=False`` engine
      pays one forward per thread.

    With ``workers >= 2`` a fourth, *HTTP-level* measurement starts a
    real :class:`~repro.serve.ServingFleet` (forked replicas, router,
    shared cross-process logit store) and storms it with cold-key
    request waves, against a single-process ``fastpath=False``
    :class:`~repro.serve.ModelServer` baseline where every request pays
    its own forward.  The recorded ``cold_forwards_per_key`` — fleet-
    wide full forwards divided by cold waves — is the shared store's
    leader-election working: 1.0 means a stampede against N replicas
    ran one forward.
    """
    import threading

    from repro.datasets import load_dataset
    from repro.serve import InferenceEngine, PredictRequest
    from repro.training import hyperparams_for

    graph = load_dataset(dataset, scale=scale, seed=seed)
    hp = hyperparams_for(dataset)
    registry = MetricsRegistry()

    def fresh_engine(fastpath: bool) -> InferenceEngine:
        m = _build(model, graph, hp, seed).setup(graph)
        return InferenceEngine(
            m, graph, registry=registry, fastpath=fastpath
        )

    def request(node: int) -> PredictRequest:
        return PredictRequest(nodes=np.asarray([node % graph.num_nodes]))

    engine = fresh_engine(fastpath=True)

    # -- cold vs warm single-node latency ------------------------------
    cold_timer = registry.timer("serve_bench.cold")
    for _ in range(cold_rounds):
        engine.logit_store.clear()
        with cold_timer:
            engine.predict(request(0))
    warm_timer = registry.timer("serve_bench.warm")
    for _ in range(repeats):
        with warm_timer:
            engine.predict(request(0))

    # -- warm tail latency under concurrent load -----------------------
    concurrent_hist = registry.histogram("serve_bench.warm_concurrent")
    per_thread = max(1, repeats // concurrency)
    barrier = threading.Barrier(concurrency + 1)

    def warm_worker() -> None:
        barrier.wait()
        for i in range(per_thread):
            start = time.perf_counter()
            engine.predict(request(i))
            concurrent_hist.observe(time.perf_counter() - start)

    threads = [
        threading.Thread(target=warm_worker) for _ in range(concurrency)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    wall_start = time.perf_counter()
    for t in threads:
        t.join()
    concurrent_wall = time.perf_counter() - wall_start

    # -- coalesced vs stampede throughput ------------------------------
    def storm(eng: InferenceEngine, rounds: int) -> float:
        """Requests/s with all threads hitting a cold store each round."""
        total = 0.0
        completed = 0
        for _ in range(rounds):
            if eng.logit_store is not None:
                eng.logit_store.clear()
            gate = threading.Barrier(concurrency + 1)

            def storm_worker(idx: int) -> None:
                gate.wait()
                eng.predict(request(idx))

            workers = [
                threading.Thread(target=storm_worker, args=(i,))
                for i in range(concurrency)
            ]
            for w in workers:
                w.start()
            gate.wait()
            start = time.perf_counter()
            for w in workers:
                w.join()
            total += time.perf_counter() - start
            completed += concurrency
        return completed / total if total else 0.0

    coalesced_rps = storm(engine, stampede_rounds)
    stampede_rps = storm(fresh_engine(fastpath=False), stampede_rounds)

    # -- fleet vs single process, over HTTP ----------------------------
    fleet_doc = None
    if workers >= 2:
        fleet_doc = _fleet_storm(
            fresh_engine, graph, workers=workers, concurrency=concurrency,
            rounds=stampede_rounds,
        )

    cold = _summary(cold_timer.histogram)
    warm = _summary(warm_timer.histogram)
    serve_doc = {
        "schema": SCHEMA_SERVE,
        "dataset": dataset,
        "units": "seconds",
        "settings": {
            "model": model,
            "repeats": repeats,
            "cold_rounds": cold_rounds,
            "concurrency": concurrency,
            "stampede_rounds": stampede_rounds,
            "workers": workers,
            "scale": scale,
            "seed": seed,
            "num_nodes": graph.num_nodes,
            "num_edges": int(graph.adj.nnz // 2),
            "num_features": graph.num_features,
        },
        "latency": {
            "cold": cold,
            "warm": {
                **warm, "p99_s": warm_timer.histogram.percentile(99)
            },
            "speedup": _speedup(cold["mean_s"], warm["mean_s"]),
        },
        "concurrent_warm": {
            "requests": concurrent_hist.count,
            "p50_s": concurrent_hist.percentile(50),
            "p95_s": concurrent_hist.percentile(95),
            "p99_s": concurrent_hist.percentile(99),
            "throughput_rps": (
                concurrent_hist.count / concurrent_wall
                if concurrent_wall else 0.0
            ),
        },
        "coalesce": {
            "coalesced_rps": coalesced_rps,
            "stampede_rps": stampede_rps,
            "ratio": (
                round(coalesced_rps / stampede_rps, 3)
                if stampede_rps else None
            ),
        },
        "fastpath": engine.info()["fastpath"],
        "fleet": fleet_doc,
    }

    paths = []
    if write:
        out = pathlib.Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "BENCH_serve.json"
        serve_doc = _preserve_sharded(path, serve_doc)
        path.write_text(json.dumps(serve_doc, indent=2) + "\n")
        paths.append(str(path))
    return {"serve": serve_doc, "paths": paths}


# ----------------------------------------------------------------------
def run_mutate_bench(
    dataset: str = "synthetic",
    model: str = "sgc",
    batches: int = 50,
    edges_per_batch: int = 8,
    feature_upserts: int = 2,
    full_rounds: int = 5,
    scale: Optional[float] = None,
    seed: int = 0,
    out_dir: str = ".",
    write: bool = True,
) -> dict:
    """Benchmark dynamic graph updates; writes the ``"mutate"`` block
    of ``BENCH_serve.json`` (other blocks preserved).

    Drives ``batches`` randomized mutation batches (edge adds/removes
    plus feature upserts) through
    :meth:`~repro.serve.InferenceEngine.apply_update` with a real
    fsync'ing WAL, timing the whole committed path: WAL append, CSR
    surgery, incremental ``Â^k X`` maintenance, row-level logit-store
    invalidation, publish.  The baseline is what each update would cost
    without incremental maintenance — a from-scratch ``gcn_norm`` plus a
    dense ``Â^k X`` rebuild — giving the headline
    ``speedup_vs_full``.  A warm predict is timed after every batch, so
    the block also shows what serving pays right after an update.
    """
    import tempfile

    from repro.datasets import load_dataset
    from repro.graphs.mutate import UpdateBatch
    from repro.graphs.normalize import gcn_norm
    from repro.resilience.wal import GraphMutationLog
    from repro.serve import InferenceEngine, PredictRequest
    from repro.training import hyperparams_for

    graph = load_dataset(dataset, scale=scale, seed=seed)
    hp = hyperparams_for(dataset)
    registry = MetricsRegistry()
    rng = np.random.default_rng(seed)
    m = _build(model, graph, hp, seed).setup(graph)

    def random_batch(live, index: int) -> UpdateBatch:
        n = live.num_nodes
        adj = live.adj
        rows, cols = adj.nonzero()
        upper = rows < cols
        rows, cols = rows[upper], cols[upper]
        k_rm = min(edges_per_batch // 2, len(rows))
        removes = []
        if k_rm:
            picks = rng.choice(len(rows), size=k_rm, replace=False)
            removes = [(int(rows[i]), int(cols[i])) for i in picks]
        adds = []
        seen = set(removes)
        tries = 0
        while len(adds) < edges_per_batch and tries < 100 * edges_per_batch:
            tries += 1
            u, v = (int(x) for x in rng.integers(0, n, size=2))
            if u == v:
                continue
            if u > v:
                u, v = v, u
            if (u, v) in seen or adj[u, v] != 0:
                continue
            seen.add((u, v))
            adds.append((u, v))
        upserts = None
        if feature_upserts:
            nodes = rng.choice(n, size=min(feature_upserts, n), replace=False)
            values = rng.standard_normal((len(nodes), live.num_features))
            upserts = (nodes, values)
        return UpdateBatch(
            update_id=f"bench-{index}",
            add_edges=adds,
            remove_edges=removes,
            feature_updates=upserts,
        )

    with tempfile.TemporaryDirectory(prefix="repro-mutate-bench-") as tmp:
        engine = InferenceEngine(
            m, graph, registry=registry, fastpath=True,
            wal=GraphMutationLog.in_dir(tmp),
        )
        # Warm the logit store so row-level invalidation has something
        # to migrate (mirrors a live server taking updates mid-traffic).
        warm_nodes = np.arange(min(64, graph.num_nodes))
        engine.predict(PredictRequest(nodes=warm_nodes))

        apply_timer = registry.timer("mutate_bench.apply")
        warm_timer = registry.timer("mutate_bench.warm_after")
        dirty = 0
        incremental = 0
        migrated_entries = 0
        for index in range(batches):
            batch = random_batch(engine.graph, index)
            with apply_timer:
                result = engine.apply_update(batch)
            dirty += result.get("dirty_rows") or 0
            incremental += 1 if result.get("incremental") else 0
            migrated_entries += result.get("store_entries_migrated") or 0
            with warm_timer:
                engine.predict(PredictRequest(nodes=warm_nodes))

        k = engine.receptive_field() or 2
        full_timer = registry.timer("mutate_bench.full_rebuild")
        for _ in range(full_rounds):
            with full_timer:
                op = gcn_norm(engine.graph.adj)
                x = np.asarray(engine.graph.features, dtype=op.csr.dtype)
                for _ in range(k):
                    x = op.csr @ x

        final_version = engine.graph_version
        wal_info = engine.info().get("wal") or {}

    apply_stats = _summary(apply_timer.histogram)
    full_stats = _summary(full_timer.histogram)
    mutate_doc = {
        "settings": {
            "dataset": dataset,
            "model": model,
            "batches": batches,
            "edges_per_batch": edges_per_batch,
            "feature_upserts": feature_upserts,
            "full_rounds": full_rounds,
            "scale": scale,
            "seed": seed,
            "num_nodes": graph.num_nodes,
            "num_features": graph.num_features,
            "receptive_field": k,
        },
        "apply": {
            **apply_stats, "p99_s": apply_timer.histogram.percentile(99)
        },
        "warm_predict_after_update": _summary(warm_timer.histogram),
        "full_rebuild": full_stats,
        "speedup_vs_full": _speedup(
            full_stats["mean_s"], apply_stats["mean_s"]
        ),
        "incremental_batches": incremental,
        "dirty_rows_total": int(dirty),
        "store_entries_migrated": int(migrated_entries),
        "final_graph_version": final_version,
        "wal_records": wal_info.get("records"),
    }

    paths = []
    if write:
        out = pathlib.Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "BENCH_serve.json"
        doc = {}
        if path.exists():
            try:
                doc = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                doc = {}
        if not isinstance(doc, dict):
            doc = {}
        doc["schema"] = SCHEMA_SERVE
        doc["mutate"] = mutate_doc
        path.write_text(json.dumps(doc, indent=2) + "\n")
        paths.append(str(path))
    return {"mutate": mutate_doc, "paths": paths}


def format_mutate_report(result: dict) -> str:
    """Human-readable summary of a :func:`run_mutate_bench` result."""
    block = result["mutate"]
    s = block["settings"]
    apply = block["apply"]
    full = block["full_rebuild"]
    warm = block["warm_predict_after_update"]
    lines = [
        f"mutate bench: {s['dataset']} ({s['num_nodes']:,} nodes), "
        f"{s['model']} (k={s['receptive_field']}), "
        f"{s['batches']} WAL-backed update batches",
        f"  apply (WAL fsync + CSR surgery + incremental maintenance): "
        f"{1000 * apply['mean_s']:.2f} ms mean, "
        f"{1000 * apply['p95_s']:.2f} ms p95",
        f"  full-rebuild baseline (gcn_norm + dense A^k X): "
        f"{1000 * full['mean_s']:.2f} ms mean",
        f"  incremental speedup: {block['speedup_vs_full']}x "
        f"({block['incremental_batches']}/{s['batches']} batches "
        f"incremental, {block['dirty_rows_total']:,} dirty rows total)",
        f"  warm predict after update: "
        f"{1000 * warm['p50_s']:.2f} ms p50",
        f"  final graph version {block['final_graph_version']}, "
        f"{block['store_entries_migrated']} store entries migrated",
    ]
    return "\n".join(lines)


# ----------------------------------------------------------------------
def run_sharded_bench(
    dataset: str = "tencent",
    shards: int = 8,
    k: int = 2,
    epochs: int = 3,
    repeats: int = 200,
    batch: int = 16,
    scale: Optional[float] = 1.0,
    seed: int = 0,
    out_dir: str = ".",
    write: bool = True,
) -> dict:
    """Graph-sharded train+serve benchmark (``bench --sharded``).

    The flagship configuration is the Tencent-style bipartite graph at
    ``scale=1.0`` — one million nodes, which the dense per-mode harness
    above never attempts.  Four stages, all through the real APIs:

    1. partition + :func:`~repro.graphs.build_shard_plan` (timed, with
       halo/edge-cut stats);
    2. shard-by-shard ``Â^k X`` vs the dense chain — the committed
       document records the *bitwise* equivalence verdict at full scale;
    3. ``Trainer.fit(shards=N)`` of an SGC head over the sharded
       propagation;
    4. ownership-routed serving against per-shard propagated rows: warm
       single-node lookups, cross-shard batches split per owner and
       re-merged in request order (merge time under
       ``shard.stitch_time_s``), per-shard routed counts.

    Results land under a ``"sharded"`` key merged into the existing
    ``BENCH_train.json`` / ``BENCH_serve.json`` (schema v2 / v3: prior
    fields kept).
    """
    from repro.datasets import load_dataset
    from repro.graphs.normalize import gcn_norm
    from repro.graphs.shard import build_shard_plan
    from repro.models import SGC
    from repro.perf.propcache import PropagationCache
    from repro.training import TrainConfig, Trainer, hyperparams_for

    registry = MetricsRegistry()
    rng = np.random.default_rng(seed)

    t0 = time.perf_counter()
    graph = load_dataset(dataset, scale=scale, seed=seed)
    load_s = time.perf_counter() - t0
    hp = hyperparams_for(dataset)

    t0 = time.perf_counter()
    adj = gcn_norm(graph.adj)
    normalize_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    plan = build_shard_plan(
        graph, adj=adj, num_shards=shards, max_power=k, seed=seed
    )
    plan_s = time.perf_counter() - t0

    # -- sharded vs dense propagation (the stitch guarantee, at scale) --
    caches = [PropagationCache(scope=s.signature) for s in plan.shards]
    features = graph.features
    per_shard_s = []
    t_all = time.perf_counter()
    for shard, cache in zip(plan.shards, caches):
        t0 = time.perf_counter()
        shard.propagate(features, k, cache=cache)
        per_shard_s.append(round(time.perf_counter() - t0, 6))
    t0 = time.perf_counter()
    stitched = plan.propagate(features, k, caches=caches)  # all cache hits
    stitch_s = time.perf_counter() - t0
    sharded_total_s = time.perf_counter() - t_all

    t0 = time.perf_counter()
    dense = features
    for _ in range(k):
        dense = adj.csr @ dense
    dense_s = time.perf_counter() - t0
    bitwise = bool(np.array_equal(stitched, dense))
    max_abs_diff = float(np.max(np.abs(stitched - dense))) if not bitwise else 0.0

    warm_timer = registry.timer("shard.warm_hit")
    warm_shard = plan.shards[0]
    for _ in range(min(repeats, 50)):
        with warm_timer:
            warm_shard.propagate(features, k, cache=caches[0])
    del dense

    # -- sharded training (the real Trainer API) ------------------------
    model = SGC(graph.num_features, graph.num_classes, k_hops=k, seed=seed)
    config = TrainConfig(
        lr=hp.lr, weight_decay=hp.weight_decay,
        epochs=epochs, patience=epochs, seed=seed,
    )
    t0 = time.perf_counter()
    result = Trainer(config).fit(model, graph, shards=shards)
    train_s = time.perf_counter() - t0

    # -- ownership-routed serving over per-shard rows -------------------
    # Per-shard propagated rows (cache-warm) + the trained head: exactly
    # what a shard-bound replica answers from, without paying a fleet of
    # full-graph forwards on a single-core benchmark box.
    weight = model.lin.weight.data
    bias = model.lin.bias.data if model.lin.bias is not None else None
    shard_rows = [
        shard.propagate(features, k, cache=cache)
        for shard, cache in zip(plan.shards, caches)
    ]
    local_pos = np.empty(graph.num_nodes, dtype=np.int64)
    for shard in plan.shards:
        local_pos[shard.nodes] = np.arange(len(shard.nodes))

    def _serve_rows(ids: np.ndarray, owner: int) -> np.ndarray:
        rows = shard_rows[owner][local_pos[ids]]
        logits = rows @ weight
        if bias is not None:
            logits = logits + bias
        return np.argmax(logits, axis=1)

    routed = np.zeros(shards, dtype=np.int64)
    single_timer = registry.timer("shard.serve.single")
    nodes = rng.integers(0, graph.num_nodes, size=repeats)
    for node in nodes:
        with single_timer:
            owner = int(plan.owner[node])
            _serve_rows(np.asarray([node]), owner)
        routed[owner] += 1

    batch_timer = registry.timer("shard.serve.batch")
    stitch_timer = registry.timer("shard.stitch_time_s")
    cross_shard_batches = 0
    batch_rounds = max(1, repeats // 10)
    for _ in range(batch_rounds):
        ids = rng.integers(0, graph.num_nodes, size=batch)
        with batch_timer:
            owners = plan.owner[ids]
            groups = [
                (int(o), np.flatnonzero(owners == o))
                for o in np.unique(owners)
            ]
            if len(groups) > 1:
                cross_shard_batches += 1
            parts = [
                (positions, _serve_rows(ids[positions], owner))
                for owner, positions in groups
            ]
            with stitch_timer:
                merged = np.empty(batch, dtype=np.int64)
                for positions, classes in parts:
                    merged[positions] = classes
        routed += np.bincount(owners, minlength=shards)

    settings = {
        "dataset": dataset,
        "model": "sgc",
        "shards": shards,
        "k": k,
        "epochs": epochs,
        "repeats": repeats,
        "batch": batch,
        "scale": scale,
        "seed": seed,
        "num_nodes": graph.num_nodes,
        "num_edges": int(graph.adj.nnz // 2),
        "num_features": graph.num_features,
        "num_classes": graph.num_classes,
        "load_s": round(load_s, 3),
    }
    train_sharded = {
        "settings": settings,
        "partition": {
            "normalize_s": round(normalize_s, 3),
            "plan_build_s": round(plan_s, 3),
            "edge_cut_fraction": round(plan.edge_cut, 6),
            "halo_rows": plan.halo_rows(),
            "shard_nodes": [int(len(s.nodes)) for s in plan.shards],
            "shard_halo_rows": [int(len(s.halo)) for s in plan.shards],
        },
        "propagate": {
            "sharded_total_s": round(sharded_total_s, 4),
            "per_shard_s": per_shard_s,
            "stitch_s": round(stitch_s, 4),
            "dense_s": round(dense_s, 4),
            "warm_hit": _summary(warm_timer.histogram),
        },
        "equivalence": {
            "bitwise_identical": bitwise,
            "max_abs_diff": max_abs_diff,
            "dtype": str(stitched.dtype),
        },
        "train": {
            "total_s": round(train_s, 3),
            "epochs_run": result.epochs_run,
            "mean_epoch_s": round(result.mean_epoch_time, 4),
            "best_val_acc": round(result.best_val_acc, 4),
            "test_acc": round(result.test_acc, 4),
        },
    }
    single_hist = single_timer.histogram
    batch_hist = batch_timer.histogram
    serve_sharded = {
        "settings": settings,
        "routed": {
            "requests": int(repeats + batch_rounds * batch),
            "per_shard": routed.tolist(),
            "cross_shard_batches": cross_shard_batches,
            "batch_rounds": batch_rounds,
            "stitch_time_s": _summary(stitch_timer.histogram),
        },
        "latency": {
            "single": {
                **_summary(single_hist),
                "p99_s": single_hist.percentile(99),
            },
            "batch": {
                **_summary(batch_hist),
                "p99_s": batch_hist.percentile(99),
            },
        },
        "halo_rows": plan.halo_rows(),
    }

    paths = []
    if write:
        out = pathlib.Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, schema, block in (
            ("BENCH_train.json", SCHEMA_TRAIN, train_sharded),
            ("BENCH_serve.json", SCHEMA_SERVE, serve_sharded),
        ):
            path = out / name
            doc = {}
            if path.exists():
                try:
                    doc = json.loads(path.read_text(encoding="utf-8"))
                except (OSError, json.JSONDecodeError):
                    doc = {}
            if not isinstance(doc, dict):
                doc = {}
            doc["schema"] = schema
            doc["sharded"] = block
            path.write_text(json.dumps(doc, indent=2) + "\n")
            paths.append(str(path))
    return {
        "train_sharded": train_sharded,
        "serve_sharded": serve_sharded,
        "paths": paths,
    }


def format_sharded_report(result: dict) -> str:
    """Human-readable summary of a :func:`run_sharded_bench` result."""
    train = result["train_sharded"]
    serve = result["serve_sharded"]
    s = train["settings"]
    part = train["partition"]
    prop = train["propagate"]
    eq = train["equivalence"]
    fit = train["train"]
    lat = serve["latency"]
    lines = [
        f"sharded bench: {s['dataset']} scale={s['scale']} "
        f"({s['num_nodes']:,} nodes, {s['num_edges']:,} edges) "
        f"x {s['shards']} shards, k={s['k']}",
        f"  partition: {part['plan_build_s']}s, "
        f"edge cut {part['edge_cut_fraction']:.3f}, "
        f"halo rows {part['halo_rows']:,}",
        f"  propagate: sharded {prop['sharded_total_s']}s "
        f"(stitch {prop['stitch_s']}s) vs dense {prop['dense_s']}s; "
        f"warm hit {1e6 * prop['warm_hit']['p50_s']:.0f}us p50",
        f"  equivalence: bitwise_identical={eq['bitwise_identical']} "
        f"({eq['dtype']}, max |diff| {eq['max_abs_diff']:g})",
        f"  train: {fit['epochs_run']} epochs @ {fit['mean_epoch_s']}s, "
        f"val {100 * fit['best_val_acc']:.1f}% "
        f"test {100 * fit['test_acc']:.1f}%",
        f"  serve: single p50 {1e3 * lat['single']['p50_s']:.3f}ms "
        f"p99 {1e3 * lat['single']['p99_s']:.3f}ms; "
        f"batch({s['batch']}) p50 {1e3 * lat['batch']['p50_s']:.3f}ms; "
        f"{serve['routed']['cross_shard_batches']} cross-shard batches",
    ]
    return "\n".join(lines)


def _http_storm(
    url: str, concurrency: int, rounds: int, reset=None
) -> tuple:
    """``(rps, failures)`` for barrier-released POST /predict waves.

    Worker threads persist across rounds and hold keep-alive
    connections, so the measurement is the server's wave-absorption
    rate, not client-side thread-spawn and TCP-handshake overhead.
    """
    import http.client
    import threading
    from urllib.parse import urlsplit

    parts = urlsplit(url)
    host, port = parts.hostname, parts.port
    total = 0.0
    completed = 0
    failures = 0
    fail_lock = threading.Lock()
    wave_gate = threading.Barrier(concurrency + 1)
    done_gate = threading.Barrier(concurrency + 1)
    stop = threading.Event()

    def worker(idx: int) -> None:
        nonlocal failures
        body = json.dumps({"nodes": [idx]}).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        conn = http.client.HTTPConnection(host, port, timeout=120)
        try:
            conn.connect()  # handshake outside the timed region
        except OSError:
            pass
        while True:
            wave_gate.wait()
            if stop.is_set():
                break
            try:
                conn.request("POST", "/predict", body=body, headers=headers)
                response = conn.getresponse()
                response.read()
                if response.will_close:
                    conn.close()
                    conn = http.client.HTTPConnection(
                        host, port, timeout=120
                    )
            except Exception:
                with fail_lock:
                    failures += 1
                try:
                    conn.close()
                except OSError:
                    pass
                conn = http.client.HTTPConnection(host, port, timeout=120)
            done_gate.wait()
        conn.close()

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(concurrency)
    ]
    for t in threads:
        t.start()
    for round_idx in range(rounds):
        if reset is not None:
            reset(round_idx)
        wave_gate.wait()
        start = time.perf_counter()
        done_gate.wait()
        total += time.perf_counter() - start
        completed += concurrency
    stop.set()
    wave_gate.wait()
    for t in threads:
        t.join(timeout=30)
    return (completed / total if total else 0.0), failures


def _fleet_storm(
    fresh_engine, graph, workers: int, concurrency: int, rounds: int
) -> dict:
    """Cold-key HTTP stampedes: N-replica fleet vs one no-fastpath server.

    Both sides serve identical single-node predicts over real sockets.
    The single-process baseline runs ``fastpath=False`` — every request
    in the wave pays its own full forward, which is what a fleet
    *without* the shared store would also do per replica.  The fleet's
    shared store coalesces each wave onto one leader forward fleet-wide;
    the difference is the measured ratio.

    The wave is sized to a thundering herd — several clients per
    replica, never less than ``concurrency`` — because that is the
    workload the shared store exists for; the same wave hits both
    sides.
    """
    from repro.serve import FleetConfig, ModelServer, ServingFleet

    wave = max(concurrency, 6 * workers)
    # Several waves keep the rps estimate stable — each cold wave is
    # only milliseconds once the store collapses it to one forward.
    rounds = max(rounds, 8)
    fleet = ServingFleet(fresh_engine(True), FleetConfig(
        workers=workers,
        max_inflight=max(8, wave),
        max_inflight_per_replica=max(8, wave),
        probe_interval_s=0.1,
        store_wait_s=30.0,       # waves must coalesce, not time out
        drain_timeout_s=5.0,
    ))
    fleet.start()
    try:
        if not fleet.wait_ready(timeout_s=60.0):
            raise RuntimeError("fleet replicas never became ready")
        fleet_rps, fleet_failures = _http_storm(
            fleet.url, wave, rounds,
            reset=lambda _i: fleet.store.clear(),
        )
        # serve.predict.full counts coalesced consumers too; the number
        # of forwards actually *executed* fleet-wide is the shared
        # store's puts counter — exactly one per cold wave iff the
        # cross-process leader election held.
        import urllib.request

        with urllib.request.urlopen(fleet.url + "/metrics", timeout=30) as r:
            totals = json.loads(r.read())["fleet"]["totals"]
        full_path_requests = int(totals.get("serve.predict.full", 0))
        store_info = fleet.store.info()
        forwards_executed = int(store_info["shared"]["puts"])
        supervisor = fleet.supervisor.snapshot()
    finally:
        fleet.shutdown()

    single = ModelServer(
        fresh_engine(False), port=0, max_inflight=max(8, wave)
    ).start()
    try:
        single_rps, single_failures = _http_storm(
            single.url, wave, rounds
        )
    finally:
        single.stop()

    return {
        "workers": workers,
        "rounds": rounds,
        "requests_per_round": wave,
        "fleet_stampede_rps": fleet_rps,
        "single_stampede_rps": single_rps,
        "ratio": round(fleet_rps / single_rps, 3) if single_rps else None,
        "fleet_failures": fleet_failures,
        "single_failures": single_failures,
        "full_path_requests": full_path_requests,
        "forwards_executed": forwards_executed,
        "cold_forwards_per_key": (
            round(forwards_executed / rounds, 3) if rounds else None
        ),
        "replicas_up": supervisor["up"],
        "store": store_info,
    }


def format_serve_report(result: dict) -> str:
    """Human-readable summary of a :func:`run_serve_bench` result."""
    doc = result["serve"]
    lat, conc, coal = doc["latency"], doc["concurrent_warm"], doc["coalesce"]
    return "\n".join([
        f"serve bench: {doc['dataset']} "
        f"(nodes={doc['settings']['num_nodes']}, "
        f"model={doc['settings']['model']}, "
        f"concurrency={doc['settings']['concurrency']})",
        "",
        f"cold predict   {1000 * lat['cold']['mean_s']:>10.3f} ms  "
        f"(full-graph forward)",
        f"warm predict   {1000 * lat['warm']['mean_s']:>10.3f} ms  "
        f"(logit-store lookup)  -> {lat['speedup'] or 0:.0f}x",
        f"warm p50/p95/p99 under load: "
        f"{1000 * conc['p50_s']:.3f} / {1000 * conc['p95_s']:.3f} / "
        f"{1000 * conc['p99_s']:.3f} ms "
        f"({conc['throughput_rps']:.0f} req/s)",
        f"cold-key storm: coalesced {coal['coalesced_rps']:.0f} req/s vs "
        f"stampede {coal['stampede_rps']:.0f} req/s  "
        f"-> {coal['ratio'] or 0:.2f}x",
    ] + ([
        "",
        f"fleet ({doc['fleet']['workers']} replicas, HTTP): "
        f"{doc['fleet']['fleet_stampede_rps']:.0f} req/s vs "
        f"single-process {doc['fleet']['single_stampede_rps']:.0f} req/s  "
        f"-> {doc['fleet']['ratio'] or 0:.2f}x",
        f"cold forwards per content key: "
        f"{doc['fleet']['cold_forwards_per_key']} "
        f"({doc['fleet']['forwards_executed']} forwards / "
        f"{doc['fleet']['rounds']} cold waves; "
        f"failures fleet={doc['fleet']['fleet_failures']} "
        f"single={doc['fleet']['single_failures']})",
    ] if doc.get("fleet") else []))


def format_report(result: dict) -> str:
    """Human-readable summary of a :func:`run_bench` result."""
    train, infer = result["train"], result["infer"]
    lines = [
        f"bench: {train['dataset']} "
        f"(nodes={train['settings']['num_nodes']}, "
        f"epochs={train['settings']['epochs']}, "
        f"repeats={train['settings']['repeats']})",
        "",
        f"{'model':<10} {'ref ms/epoch':>13} {'opt ms/epoch':>13} "
        f"{'speedup':>8}   {'ref ms/infer':>13} {'opt ms/infer':>13} {'speedup':>8}",
    ]
    for name in train["settings"]["models"]:
        ref_t = train["modes"]["reference"]["models"][name]["mean_epoch_s"]
        opt_t = train["modes"]["optimized"]["models"][name]["mean_epoch_s"]
        ref_i = infer["modes"]["reference"]["models"][name]["mean_call_s"]
        opt_i = infer["modes"]["optimized"]["models"][name]["mean_call_s"]
        lines.append(
            f"{name:<10} {1000 * ref_t:>13.2f} {1000 * opt_t:>13.2f} "
            f"{train['speedup'][name] or 0:>7.2f}x   "
            f"{1000 * ref_i:>13.2f} {1000 * opt_i:>13.2f} "
            f"{infer['speedup'][name] or 0:>7.2f}x"
        )
    lines.append("")
    lines.append(f"{'micro-op':<22} {'ref µs':>10} {'opt µs':>10} {'speedup':>8}")
    for op, entry in result["train"]["micro_ops"].items():
        lines.append(
            f"{op:<22} {1e6 * entry['reference']['mean_s']:>10.1f} "
            f"{1e6 * entry['optimized']['mean_s']:>10.1f} "
            f"{entry['speedup'] or 0:>7.2f}x"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
def run_kernels_bench(
    dataset: str = "synthetic",
    k: int = 3,
    repeats: int = 20,
    batch: int = 16,
    scale: Optional[float] = None,
    seed: int = 0,
    out_dir: str = ".",
    write: bool = True,
) -> dict:
    """Benchmark the raw kernels (``bench --kernels``).

    Three measurements, each paired with its equivalence verdict so the
    committed document *proves* the speedups are for the same bits:

    1. per-power recomputation of ``[Â X … Â^k X]`` from ``X``
       (``k(k+1)/2`` spmms) vs the chain (``k`` spmms): a cold
       :meth:`PropagationCache.propagate_chain` over a frozen ``X``,
       which is hashed once, before timing;
    2. union-restricted micro-batch eval (SGC head over ``batch`` ≪ N
       rows) vs a full-matrix ``predict()`` (argmax-identity flag);
    3. the int8-quantized fallback head vs the float head (argmax
       identity over every node, byte sizes, max weight error).

    Results land under a ``"kernels"`` key merged into the existing
    ``BENCH_infer.json`` (schema v2; prior fields kept).
    """
    from repro.datasets import load_dataset
    from repro.graphs.normalize import gcn_norm
    from repro.models.sgc import SGC
    from repro.perf.kernels import QuantizedHead
    from repro.serve.engine import ShallowFallback

    if k < 1:
        raise ValueError(f"kernels bench needs k >= 1, got {k}")
    registry = MetricsRegistry()
    rng = np.random.default_rng(seed)
    graph = load_dataset(dataset, scale=scale, seed=seed)
    adj = gcn_norm(graph.adj)
    x = propcache.freeze(np.array(graph.features, order="C"))

    # -- 1. per-power recomputation vs the chain ------------------------
    sequential_timer = registry.timer("kernels.powers_sequential")
    sequential = []
    for _ in range(repeats):
        with sequential_timer:
            sequential = []
            for power in range(1, k + 1):
                current = x
                for _ in range(power):
                    current = adj.csr @ current
                sequential.append(current)
    fused_timer = registry.timer("kernels.powers_fused")
    # X is frozen, so this first call hashes X (and Â) for every cold
    # cache that follows.
    fused = propcache.PropagationCache().propagate_chain(adj, x, k)
    for _ in range(repeats):
        with fused_timer:
            fused = propcache.PropagationCache().propagate_chain(adj, x, k)
    chain_bitwise = bool(
        all(np.array_equal(a, b) for a, b in zip(sequential, fused))
    )

    # -- 2. union-restricted eval vs full-matrix predict ----------------
    model = SGC(
        graph.num_features, graph.num_classes, k_hops=min(k, 2), seed=seed
    ).setup(graph)
    union = np.sort(
        rng.choice(graph.num_nodes, size=min(batch, graph.num_nodes),
                   replace=False)
    )
    full = model.predict()  # warm caches and BLAS
    full_timer = registry.timer("kernels.eval_full")
    for _ in range(repeats):
        with full_timer:
            full = model.predict()
    restricted_timer = registry.timer("kernels.eval_restricted")
    restricted = None
    for _ in range(repeats):
        with restricted_timer:
            restricted = model.restricted_logits(union)
    restricted_argmax = bool(
        np.array_equal(restricted.argmax(axis=1), full[union].argmax(axis=1))
    )

    # -- 3. quantized fallback head vs float head -----------------------
    float_fallback = ShallowFallback(graph, quantize=False)
    quant_head = QuantizedHead(float_fallback.weight, float_fallback.bias)
    float_logits = float_fallback.full_logits()
    quant_logits = quant_head.logits(float_fallback._propagated)
    quant_argmax = bool(
        np.array_equal(
            quant_logits.argmax(axis=1), float_logits.argmax(axis=1)
        )
    )
    float_bytes = int(
        float_fallback.weight.nbytes + float_fallback.bias.nbytes
    )

    sequential_stats = _summary(sequential_timer.histogram)
    fused_stats = _summary(fused_timer.histogram)
    full_stats = _summary(full_timer.histogram)
    restricted_stats = _summary(restricted_timer.histogram)
    kernels_doc = {
        "settings": {
            "dataset": dataset,
            "k": k,
            "repeats": repeats,
            "batch": int(union.size),
            "scale": scale,
            "seed": seed,
            "num_nodes": graph.num_nodes,
            "num_edges": int(graph.adj.nnz // 2),
            "num_features": graph.num_features,
        },
        "fused_power_chain": {
            "sequential": sequential_stats,
            "fused": fused_stats,
            "speedup": _speedup(
                sequential_stats["mean_s"], fused_stats["mean_s"]
            ),
            "bitwise_identical": chain_bitwise,
            "spmms_sequential": k * (k + 1) // 2,
            "spmms_fused": k,
        },
        "restricted_eval": {
            "full_predict": full_stats,
            "restricted": restricted_stats,
            "speedup": _speedup(
                full_stats["mean_s"], restricted_stats["mean_s"]
            ),
            "argmax_identical": restricted_argmax,
        },
        "quantized_fallback": {
            "argmax_identical": quant_argmax,
            "float_weight_bytes": float_bytes,
            "int8_weight_bytes": quant_head.nbytes,
            "compression": _speedup(float(float_bytes), float(quant_head.nbytes)),
            "max_weight_error": quant_head.max_weight_error(
                float_fallback.weight
            ),
            "max_logit_error": float(
                np.abs(quant_logits - float_logits).max()
            ),
        },
    }

    paths = []
    if write:
        out = pathlib.Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "BENCH_infer.json"
        doc = {}
        if path.exists():
            try:
                doc = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                doc = {}
        if not isinstance(doc, dict):
            doc = {}
        doc["schema"] = SCHEMA_INFER
        doc["kernels"] = kernels_doc
        path.write_text(json.dumps(doc, indent=2) + "\n")
        paths.append(str(path))
    return {"kernels": kernels_doc, "paths": paths}


def format_kernels_report(result: dict) -> str:
    """Human-readable summary of a :func:`run_kernels_bench` result."""
    block = result["kernels"]
    s = block["settings"]
    chain = block["fused_power_chain"]
    restricted = block["restricted_eval"]
    quant = block["quantized_fallback"]
    lines = [
        f"kernels bench: {s['dataset']} ({s['num_nodes']:,} nodes, "
        f"{s['num_edges']:,} edges), k={s['k']}",
        f"  power chain ({chain['spmms_fused']} spmms vs "
        f"{chain['spmms_sequential']}): "
        f"{1000 * chain['fused']['mean_s']:.2f} ms vs "
        f"{1000 * chain['sequential']['mean_s']:.2f} ms "
        f"-> {chain['speedup'] or 0:.2f}x "
        f"(bitwise={chain['bitwise_identical']})",
        f"  union-restricted eval (batch={s['batch']}): "
        f"{1e6 * restricted['restricted']['mean_s']:.1f} µs vs full "
        f"{1e6 * restricted['full_predict']['mean_s']:.1f} µs "
        f"-> {restricted['speedup'] or 0:.2f}x "
        f"(argmax={restricted['argmax_identical']})",
        f"  int8 fallback head: {quant['int8_weight_bytes']:,} B vs "
        f"{quant['float_weight_bytes']:,} B float "
        f"-> {quant['compression'] or 0:.1f}x smaller "
        f"(argmax={quant['argmax_identical']}, "
        f"max |dW|={quant['max_weight_error']:.2e}, "
        f"max |dlogit|={quant['max_logit_error']:.2e})",
    ]
    return "\n".join(lines)
