"""Durable dynamic-graph mutation: WAL, incremental maintenance, serving.

Acceptance contract under test (ISSUE 9):

- **Equivalence harness** — after a randomized sequence of >= 50 mixed
  update batches (edge adds/removes, node growth, feature upserts), the
  incrementally maintained ``Â^k X`` chain and the served logits are
  **bitwise-identical** (``np.array_equal``) to a from-scratch rebuild
  of the mutated graph;
- **Crash-recovery harness** — a crash at any injected fault point
  (``pre-wal`` / ``wal-committed`` / ``pre-publish``) loses at most the
  uncommitted batch: WAL replay converges to the last committed
  ``graph_version``, torn tails are truncated (not fatal), and
  re-sending the same idempotency key is a no-op;
- the HTTP surface: ``POST /graph/update`` with stable 4xx codes,
  ``X-Graph-Version`` fencing (409 + client backoff/retry), and the
  fleet broadcast with per-replica version lag in ``/readyz``.
"""

import contextlib
import json
import signal
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.datasets import generate_dcsbm_graph, generate_features
from repro.datasets.splits import per_class_split
from repro.graphs import Graph
from repro.graphs.mutate import (
    MutationConflict,
    UpdateBatch,
    apply_batch,
    check_batch,
    dirty_rows,
    incremental_gcn_norm,
    normalization_state,
)
from repro.graphs.normalize import gcn_norm
from repro.obs import MetricsRegistry
from repro.perf import config as perf_config
from repro.perf import perf_mode, propcache
from repro.resilience import InjectedFault
from repro.resilience.faults import CrashMidApply, TornWALWrite
from repro.resilience.wal import GraphMutationLog, WALError
from repro.serve import (
    GRAPH_VERSION_HEADER,
    FleetConfig,
    GraphConflict,
    InferenceEngine,
    ModelServer,
    PredictRequest,
    ServeClient,
    ServeClientError,
    ServeError,
    ServingFleet,
    ShallowFallback,
    ValidationError,
    parse_update_request,
)
from repro.tensor import Tensor

pytestmark = [pytest.mark.dynamic, pytest.mark.serve]


# ---------------------------------------------------------------------------
# Fixtures and helpers
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def graph():
    rng = np.random.default_rng(23)
    adj, labels = generate_dcsbm_graph(110, 3, 380, homophily=0.9, rng=rng)
    features = generate_features(labels, 12, rng=rng)
    train, val, test = per_class_split(labels, 8, 12, 30, rng=rng)
    return Graph(
        adj=adj, features=features, labels=labels,
        train_mask=train, val_mask=val, test_mask=test,
        name="dynamic-test",
    )


def clone_graph(graph):
    """A deep copy the engine may mutate without touching the fixture."""
    return Graph(
        adj=graph.adj.copy(),
        features=graph.features.copy(),
        labels=graph.labels.copy(),
        train_mask=graph.train_mask.copy(),
        val_mask=graph.val_mask.copy(),
        test_mask=graph.test_mask.copy(),
        name=graph.name,
        num_classes=graph.num_classes,
    )


def make_model(graph, name="sgc", seed=0):
    from repro.models import build_model

    return build_model(
        name, graph.num_features, graph.num_classes,
        hidden=8, num_layers=2, dropout=0.0, seed=seed,
    )


def make_engine(graph, model_name="sgc", wal=None, fastpath=True, **kwargs):
    return InferenceEngine(
        make_model(graph, model_name), graph,
        registry=MetricsRegistry(), wal=wal, fastpath=fastpath, **kwargs,
    )


def random_batch(rng, live, index, allow_growth=True):
    """A conflict-free randomized mutation batch against ``live``."""
    n = live.num_nodes
    adj = live.adj
    rows, cols = adj.nonzero()
    upper = rows < cols
    rows, cols = rows[upper], cols[upper]
    removes = []
    if len(rows) > 20:
        picks = rng.choice(len(rows), size=int(rng.integers(0, 4)), replace=False)
        removes = [(int(rows[i]), int(cols[i])) for i in picks]
    add_nodes = int(rng.integers(0, 3)) if allow_growth and index % 7 == 3 else 0
    bound = n + add_nodes
    adds, seen = [], set(removes)
    want = int(rng.integers(1, 6)) + (add_nodes and 2)
    tries = 0
    while len(adds) < want and tries < 200:
        tries += 1
        u, v = (int(x) for x in rng.integers(0, bound, size=2))
        if u == v:
            continue
        if u > v:
            u, v = v, u
        if (u, v) in seen or (u < n and v < n and adj[u, v] != 0):
            continue
        seen.add((u, v))
        adds.append((u, v))
    upserts = None
    if index % 3 == 0:
        nodes = rng.choice(n, size=2, replace=False)
        upserts = (nodes, rng.standard_normal((2, live.num_features)))
    return UpdateBatch(
        update_id=f"batch-{index}",
        add_edges=adds,
        remove_edges=removes,
        add_nodes=add_nodes,
        new_features=(
            rng.standard_normal((add_nodes, live.num_features))
            if add_nodes else None
        ),
        feature_updates=upserts,
    )


def get_json(url, timeout=10):
    """GET returning (status, decoded body) without raising on 4xx/5xx."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


def wait_for(predicate, timeout_s=15.0, interval_s=0.02):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


def post_json(url, path, payload, headers=None):
    """One un-retried POST; returns (status, body, response headers)."""
    data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    request = urllib.request.Request(
        url + path, data=data,
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=15) as resp:
            return resp.status, json.loads(resp.read().decode()), resp.headers
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode()), exc.headers


# ---------------------------------------------------------------------------
# WAL durability
# ---------------------------------------------------------------------------

class TestMutationLog:
    def test_append_reopen_roundtrip(self, tmp_path):
        wal = GraphMutationLog.in_dir(tmp_path)
        r1 = wal.append("u1", {"add_edges": [[0, 1]]})
        r2 = wal.append("u2", {"remove_edges": [[2, 3]]})
        assert (r1.version, r2.version) == (1, 2)
        reopened = GraphMutationLog.in_dir(tmp_path)
        assert reopened.last_version == 2
        assert [r.update_id for r in reopened.records()] == ["u1", "u2"]
        assert reopened.records()[0].ops == {"add_edges": [[0, 1]]}
        assert reopened.version_of("u1") == 1
        assert reopened.version_of("nope") is None

    def test_duplicate_update_id_rejected(self, tmp_path):
        wal = GraphMutationLog.in_dir(tmp_path)
        wal.append("u1", {})
        with pytest.raises(WALError):
            wal.append("u1", {})

    def test_torn_tail_truncated_and_log_usable(self, tmp_path):
        wal = GraphMutationLog.in_dir(tmp_path)
        wal.append("u1", {"add_edges": [[0, 1]]})
        wal.append("u2", {"add_edges": [[1, 2]]})
        wal.close()
        path = tmp_path / "graph.wal"
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 7])  # crash mid-write of u2
        recovered = GraphMutationLog.in_dir(tmp_path)
        assert recovered.last_version == 1
        assert recovered.truncated_bytes > 0
        assert [r.update_id for r in recovered.records()] == ["u1"]
        # The torn tail is gone from disk; appending continues cleanly.
        record = recovered.append("u2-retry", {"add_edges": [[1, 2]]})
        assert record.version == 2
        assert GraphMutationLog.in_dir(tmp_path).last_version == 2

    def test_garbage_tail_checksum_detected(self, tmp_path):
        wal = GraphMutationLog.in_dir(tmp_path)
        wal.append("u1", {})
        wal.close()
        path = tmp_path / "graph.wal"
        with path.open("ab") as fh:
            fh.write(b"0" * 64 + b"\t{not json}\n")
        recovered = GraphMutationLog.in_dir(tmp_path)
        assert recovered.last_version == 1
        assert recovered.truncated_bytes > 0

    def test_torn_wal_write_injector(self, tmp_path):
        wal = GraphMutationLog.in_dir(tmp_path)
        wal.append("u1", {})
        wal.fault_hook = TornWALWrite(keep_fraction=0.5, times=1)
        with pytest.raises(InjectedFault):
            wal.append("u2", {"add_edges": [[0, 1]]})
        # The poisoned handle refuses further writes...
        with pytest.raises(WALError):
            wal.append("u3", {})
        # ...and reopening truncates the torn frame, keeping u1.
        recovered = GraphMutationLog.in_dir(tmp_path)
        assert recovered.last_version == 1
        assert recovered.truncated_bytes > 0
        assert recovered.append("u2", {"add_edges": [[0, 1]]}).version == 2


# ---------------------------------------------------------------------------
# Request validation (satellite: malformed mutations never reach the WAL)
# ---------------------------------------------------------------------------

class TestUpdateValidation:
    CASES = [
        (b"{not json", "invalid_json"),
        (b"[]", "invalid_request"),
        ({"add_edges": [[0, 1]]}, "missing_update_id"),
        ({"update_id": ""}, "invalid_update_id"),
        ({"update_id": "u", "bogus": 1}, "unknown_field"),
        ({"update_id": "u"}, "empty_update"),
        ({"update_id": "u", "add_edges": [[0, 0]]}, "self_loop"),
        ({"update_id": "u", "add_edges": [[0, 1], [1, 0]]}, "duplicate_edge"),
        ({"update_id": "u", "add_edges": [[0, 999]]}, "node_out_of_range"),
        ({"update_id": "u", "remove_edges": [[0]]}, "invalid_edges"),
        ({"update_id": "u", "add_nodes": 3}, "invalid_add_nodes"),
        (
            {"update_id": "u",
             "feature_updates": {"nodes": [0], "values": [[float("nan")] * 12]}},
            "nonfinite_features",
        ),
        (
            {"update_id": "u",
             "feature_updates": {"nodes": [0], "values": [[1.0, 2.0]]}},
            "feature_shape_mismatch",
        ),
        (
            {"update_id": "u", "add_nodes": {"count": 5000}},
            "too_many_ops",
        ),
    ]

    @pytest.mark.parametrize("payload,code", CASES, ids=[c for _, c in CASES])
    def test_stable_4xx_codes(self, payload, code):
        raw = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        with pytest.raises(ValidationError) as err:
            parse_update_request(raw, num_nodes=110, num_features=12)
        assert err.value.code == code

    def test_valid_payload_parses_to_batch(self):
        payload = {
            "update_id": "ok-1",
            "add_edges": [[0, 1]],
            "remove_edges": [[2, 3]],
            "add_nodes": {"count": 1, "features": [[0.5] * 12]},
            "feature_updates": {"nodes": [4], "values": [[1.0] * 12]},
        }
        batch = parse_update_request(
            json.dumps(payload).encode(), num_nodes=110, num_features=12
        )
        assert batch.update_id == "ok-1"
        assert batch.add_nodes == 1
        assert batch.num_ops == 4

    def test_malformed_update_never_reaches_the_wal(self, graph, tmp_path):
        wal = GraphMutationLog.in_dir(tmp_path)
        engine = make_engine(clone_graph(graph), wal=wal)
        with ModelServer(engine, port=0, registry=MetricsRegistry()) as server:
            for payload, code in self.CASES[:8]:
                status, body, _ = post_json(server.url, "/graph/update", payload)
                assert status in (400, 413), code
                assert body["error"]["code"] == code
        assert len(wal) == 0
        assert engine.graph_version == 0


# ---------------------------------------------------------------------------
# The mutation kernel (unit level)
# ---------------------------------------------------------------------------

class TestMutationKernel:
    def test_check_batch_conflict_codes(self, graph):
        g = clone_graph(graph)
        u, v = map(int, np.transpose(g.adj.nonzero())[0])
        with pytest.raises(MutationConflict) as err:
            check_batch(g, UpdateBatch(update_id="x", add_edges=[(u, v)]))
        assert err.value.code == "edge_exists"
        with pytest.raises(MutationConflict) as err:
            check_batch(
                g, UpdateBatch(update_id="x", remove_edges=[(0, 1) if g.adj[0, 1] == 0 else (0, 0)])
            )
        assert err.value.code == "edge_not_found"
        with pytest.raises(MutationConflict) as err:
            check_batch(g, UpdateBatch(update_id="x", add_edges=[(0, 10_000)]))
        assert err.value.code == "node_out_of_range"

    def test_incremental_norm_bitwise_equals_rebuild(self, graph):
        rng = np.random.default_rng(5)
        g = clone_graph(graph)
        old_op = gcn_norm(g.adj)
        degrees, inv_sqrt = normalization_state(g.adj)
        for index in range(20):
            batch = random_batch(rng, g, index)
            old_op_prev = old_op
            delta = apply_batch(g, batch)
            new_op, degrees, inv_sqrt = incremental_gcn_norm(
                old_op_prev, g, delta, degrees, inv_sqrt
            )
            rebuilt = gcn_norm(g.adj)
            assert np.array_equal(new_op.csr.indptr, rebuilt.csr.indptr)
            assert np.array_equal(new_op.csr.indices, rebuilt.csr.indices)
            assert np.array_equal(new_op.csr.data, rebuilt.csr.data)
            old_op = new_op

    def test_dirty_rows_cover_all_changed_propagation_rows(self, graph):
        rng = np.random.default_rng(9)
        g = clone_graph(graph)
        op_before = gcn_norm(g.adj)
        x_before = g.features.copy()
        batch = random_batch(rng, g, 0)
        delta = apply_batch(g, batch)
        op_after = gcn_norm(g.adj)
        for power in (1, 2, 3):
            prop_before = x_before
            prop_after = np.asarray(g.features)
            for _ in range(power):
                prop_before = op_before.csr @ prop_before
                prop_after = op_after.csr @ prop_after
            n_old = prop_before.shape[0]
            changed = np.flatnonzero(
                ~np.all(prop_before == prop_after[:n_old], axis=1)
            )
            dirty = set(dirty_rows(g.adj, delta, power).tolist())
            assert set(changed.tolist()) <= dirty


# ---------------------------------------------------------------------------
# Equivalence harness (acceptance): >= 50 batches, bitwise vs rebuild
# ---------------------------------------------------------------------------

class TestEquivalenceHarness:
    # The default mode keeps its original ids; under perf_mode() the model
    # reads a float32 chain keyed by its own feature buffer, which differs
    # from the graph's float64 features (and from the fallback's chain).
    @pytest.mark.parametrize("model_name,mode", [
        pytest.param("sgc", "default", id="sgc"),
        pytest.param("gcn", "default", id="gcn"),
        pytest.param("sgc", "perf_mode", id="sgc-perf_mode"),
        pytest.param("gcn", "perf_mode", id="gcn-perf_mode"),
    ])
    def test_50_batches_bitwise_vs_rebuild(
        self, graph, tmp_path, model_name, mode
    ):
        context = perf_mode() if mode == "perf_mode" else contextlib.nullcontext()
        with context:
            self._run_50_batches(graph, tmp_path, model_name)

    def _run_50_batches(self, graph, tmp_path, model_name):
        rng = np.random.default_rng(41)
        engine = make_engine(
            clone_graph(graph), model_name,
            wal=GraphMutationLog.in_dir(tmp_path),
        )
        # Warm the store so row migration has live entries to maintain.
        engine.predict(PredictRequest(nodes=np.arange(32)))
        cache = propcache.get_cache()
        misses = cache.misses
        incremental = 0
        for index in range(52):
            result = engine.apply_update(random_batch(rng, engine.graph, index))
            assert result["applied"] is True
            incremental += bool(result.get("incremental"))
            if index % 5 == 0:  # keep serving between mutations
                engine.predict(PredictRequest(
                    nodes=np.asarray([index % engine.graph.num_nodes])
                ))
        assert engine.graph_version == 52
        # The stock-operator models must actually take the fast path.
        assert incremental == 52
        if perf_config.propagation_cache_enabled():
            # Every update patched the chain the model reads, so no
            # re-attach or forward recomputed it.
            assert cache.misses == misses

        mutated = engine.graph
        all_nodes = np.arange(mutated.num_nodes)
        # Served logits: bitwise vs a from-scratch engine on the final graph.
        fresh = make_engine(mutated, model_name, fastpath=False)
        served = engine._full_logits(PredictRequest(nodes=all_nodes))
        rebuilt = fresh._full_logits(PredictRequest(nodes=all_nodes))
        assert np.array_equal(served, rebuilt)
        # And through the memoized path (get_rows after 52 migrations):
        # the stored entry itself is bitwise-identical to the rebuild.
        warm = engine.predict(PredictRequest(nodes=all_nodes))
        again = engine.predict(PredictRequest(nodes=all_nodes))
        assert again["cached"] is True
        assert again["classes"] == warm["classes"]
        key = engine._store_key(PredictRequest(nodes=all_nodes))
        stored = engine.logit_store.get_rows(key, all_nodes)
        assert stored is not None and np.array_equal(stored, rebuilt)

        # Maintained Â^k X chain — the one keyed by the model's own
        # feature tensor — bitwise vs a dense rebuild from a fresh cast
        # of the final graph's features.
        live_op = engine.model._norm_adj
        rebuilt_op = gcn_norm(mutated.adj)
        assert np.array_equal(live_op.csr.data, rebuilt_op.csr.data)
        features = Tensor(np.array(mutated.features)).data
        scratch = rebuilt_op.csr @ (rebuilt_op.csr @ features)
        maintained = cache.propagate(
            live_op, engine.model._features.data, k=2
        )
        assert maintained.dtype == scratch.dtype
        assert np.array_equal(maintained, scratch)
        if model_name == "sgc":
            assert np.array_equal(engine.model._propagated.data, scratch)

    def test_duplicate_update_id_is_acknowledged_noop(self, graph, tmp_path):
        engine = make_engine(
            clone_graph(graph), wal=GraphMutationLog.in_dir(tmp_path)
        )
        batch = UpdateBatch(update_id="dup-1", add_edges=[(0, 50)])
        first = engine.apply_update(batch)
        assert first == {**first, "applied": True, "graph_version": 1}
        before = engine._full_logits(
            PredictRequest(nodes=np.arange(engine.graph.num_nodes))
        )
        replay = engine.apply_update(
            UpdateBatch(update_id="dup-1", add_edges=[(0, 50)])
        )
        assert replay["applied"] is False and replay["duplicate"] is True
        assert replay["graph_version"] == 1
        after = engine._full_logits(
            PredictRequest(nodes=np.arange(engine.graph.num_nodes))
        )
        assert np.array_equal(before, after)

    def test_conflicting_batch_is_409_and_not_logged(self, graph, tmp_path):
        wal = GraphMutationLog.in_dir(tmp_path)
        engine = make_engine(clone_graph(graph), wal=wal)
        u, v = map(int, np.transpose(engine.graph.adj.nonzero())[0])
        with pytest.raises(GraphConflict) as err:
            engine.apply_update(
                UpdateBatch(update_id="c1", add_edges=[(u, v)])
            )
        assert err.value.status == 409
        assert len(wal) == 0
        assert engine.graph_version == 0


# ---------------------------------------------------------------------------
# Node-bound models: node growth is refused before the WAL commit point
# ---------------------------------------------------------------------------

class TestNodeBoundModels:
    """Weighted and stochastic Lasagne size parameters by N, so node
    growth must be a 409 before the WAL append, never a record that
    fences the engine and fails every later replay."""

    @pytest.fixture(scope="class")
    def cora(self):
        from repro.datasets import load_dataset

        return load_dataset("cora")

    @staticmethod
    def build(graph, name):
        if name in ("sgc", "gcn"):
            return make_model(graph, name)
        from repro.core import Lasagne

        return Lasagne(
            graph.num_features, 16, graph.num_classes, num_layers=4,
            aggregator=name.split("-")[1], seed=0,
        )

    def engine(self, graph, name, wal_dir):
        return InferenceEngine(
            self.build(graph, name), clone_graph(graph),
            registry=MetricsRegistry(),
            wal=GraphMutationLog.in_dir(wal_dir),
        )

    @staticmethod
    def grow(graph):
        return UpdateBatch(
            update_id="grow-1", add_nodes=1,
            add_edges=[(0, graph.num_nodes)],
            new_features=np.zeros((1, graph.num_features)),
        )

    @staticmethod
    def non_edge(graph):
        row = graph.adj[0].toarray().ravel()
        candidates = np.flatnonzero(row == 0)
        return 0, int(candidates[candidates != 0][0])

    @pytest.mark.parametrize(
        "name", ["lasagne-weighted", "lasagne-stochastic"]
    )
    def test_node_growth_is_409_before_the_wal(self, cora, tmp_path, name):
        engine = self.engine(cora, name, tmp_path)
        with pytest.raises(GraphConflict) as err:
            engine.apply_update(self.grow(cora))
        assert err.value.status == 409
        assert err.value.code == "node_bound_model"
        assert len(engine._wal) == 0
        assert engine.graph_version == 0
        assert engine.graph.num_nodes == cora.num_nodes
        assert engine.registry.counter("serve.graph.conflicts").value == 1
        # Not fenced: the next valid update applies.
        result = engine.apply_update(
            UpdateBatch(update_id="edge-1", add_edges=[self.non_edge(cora)])
        )
        assert result["applied"] is True and result["graph_version"] == 1
        # And the WAL replays into a fresh engine.
        fresh = self.engine(cora, name, tmp_path)
        assert fresh.graph_version == 1
        assert (fresh.graph.adj != engine.graph.adj).nnz == 0

    def test_node_growth_409_over_http(self, cora, tmp_path):
        engine = self.engine(cora, "lasagne-weighted", tmp_path)
        with ModelServer(engine, port=0, registry=MetricsRegistry()) as server:
            client = ServeClient(server.url, retries=0)
            with pytest.raises(ServeClientError) as err:
                client.update_graph(
                    "grow-http", add_nodes=1,
                    new_node_features=np.zeros((1, cora.num_features)),
                    add_edges=[(0, cora.num_nodes)],
                )
            assert err.value.status == 409
            assert err.value.body["error"]["code"] == "node_bound_model"
        assert len(engine._wal) == 0

    @pytest.mark.parametrize("name", ["lasagne-maxpool", "sgc", "gcn"])
    def test_unbound_models_accept_node_growth(self, cora, tmp_path, name):
        engine = self.engine(cora, name, tmp_path)
        result = engine.apply_update(self.grow(cora))
        assert result["applied"] is True
        assert result["num_nodes"] == cora.num_nodes + 1
        assert len(engine._wal) == 1
        fresh = self.engine(cora, name, tmp_path)
        assert fresh.graph_version == 1
        assert fresh.graph.num_nodes == cora.num_nodes + 1

    def test_can_attach_is_the_one_node_bound_rule(self, cora):
        model = self.build(cora, "lasagne-weighted")
        # Unattached: the node-aware parameters are not sized yet.
        assert model.can_attach(cora.num_nodes + 1)
        model.setup(cora)
        assert model.can_attach(cora.num_nodes)
        assert not model.can_attach(cora.num_nodes + 1)
        assert self.build(cora, "lasagne-maxpool").setup(cora).can_attach(
            cora.num_nodes + 1
        )
        assert make_model(cora, "gcn").setup(cora).can_attach(1)


# ---------------------------------------------------------------------------
# Crash-recovery harness (acceptance): fault points, replay, idempotency
# ---------------------------------------------------------------------------

class TestCrashRecovery:
    def test_crash_pre_wal_loses_the_batch_cleanly(self, graph, tmp_path):
        wal = GraphMutationLog.in_dir(tmp_path)
        engine = make_engine(
            clone_graph(graph), wal=wal,
            update_fault_hook=CrashMidApply(stage="pre-wal", times=1),
        )
        with pytest.raises(InjectedFault):
            engine.apply_update(UpdateBatch(update_id="u1", add_edges=[(0, 50)]))
        # Nothing durable, nothing applied: the same key simply retries.
        assert len(wal) == 0 and engine.graph_version == 0
        result = engine.apply_update(
            UpdateBatch(update_id="u1", add_edges=[(0, 50)])
        )
        assert result["applied"] is True and result["graph_version"] == 1

    @pytest.mark.parametrize("stage", ["wal-committed", "pre-publish"])
    def test_crash_after_commit_fences_then_replay_recovers(
        self, graph, tmp_path, stage
    ):
        wal = GraphMutationLog.in_dir(tmp_path)
        engine = make_engine(
            clone_graph(graph), wal=wal,
            update_fault_hook=CrashMidApply(stage=stage, times=1),
        )
        baseline = engine._full_logits(PredictRequest(nodes=np.arange(4)))
        with pytest.raises(InjectedFault):
            engine.apply_update(UpdateBatch(update_id="u1", add_edges=[(0, 50)]))
        # The record is durable but memory is (possibly) behind: the
        # engine fences further mutations and keeps serving reads.
        assert wal.last_version == 1
        assert engine.info().get("needs_recovery") is True
        with pytest.raises(ServeError) as err:
            engine.apply_update(UpdateBatch(update_id="u2", add_edges=[(1, 51)]))
        assert err.value.status == 503 and err.value.code == "needs_recovery"
        assert np.array_equal(
            engine._full_logits(PredictRequest(nodes=np.arange(4))), baseline
        )
        # "Restart": a fresh engine on the base graph replays the WAL.
        restarted = make_engine(clone_graph(graph))
        assert restarted.attach_wal(GraphMutationLog.in_dir(tmp_path)) == 1
        assert restarted.graph_version == 1
        mutated = clone_graph(graph)
        apply_batch(mutated, UpdateBatch(update_id="u1", add_edges=[(0, 50)]))
        fresh = make_engine(mutated, fastpath=False)
        nodes = np.arange(restarted.graph.num_nodes)
        assert np.array_equal(
            restarted._full_logits(PredictRequest(nodes=nodes)),
            fresh._full_logits(PredictRequest(nodes=nodes)),
        )
        # Idempotency across the crash: the client's retry of u1 is a no-op.
        replay = restarted.apply_update(
            UpdateBatch(update_id="u1", add_edges=[(0, 50)])
        )
        assert replay["duplicate"] is True and replay["graph_version"] == 1

    def test_torn_wal_append_leaves_engine_consistent(self, graph, tmp_path):
        wal = GraphMutationLog.in_dir(tmp_path)
        engine = make_engine(clone_graph(graph), wal=wal)
        engine.apply_update(UpdateBatch(update_id="u1", add_edges=[(0, 50)]))
        wal.fault_hook = TornWALWrite(times=1)
        with pytest.raises(InjectedFault):
            engine.apply_update(UpdateBatch(update_id="u2", add_edges=[(1, 51)]))
        # The torn append never committed: memory still serves v1 and the
        # reopened log holds exactly one record.
        assert engine.graph_version == 1
        recovered = GraphMutationLog.in_dir(tmp_path)
        assert recovered.last_version == 1
        restarted = make_engine(clone_graph(graph))
        assert restarted.attach_wal(recovered) == 1
        assert restarted.graph_version == 1

    def test_replay_after_many_batches_matches_live_engine(self, graph, tmp_path):
        rng = np.random.default_rng(77)
        engine = make_engine(
            clone_graph(graph), wal=GraphMutationLog.in_dir(tmp_path)
        )
        for index in range(12):
            engine.apply_update(random_batch(rng, engine.graph, index))
        restarted = make_engine(clone_graph(graph))
        assert restarted.attach_wal(GraphMutationLog.in_dir(tmp_path)) == 12
        assert restarted.graph_version == engine.graph_version
        nodes = np.arange(engine.graph.num_nodes)
        assert np.array_equal(
            restarted._full_logits(PredictRequest(nodes=nodes)),
            engine._full_logits(PredictRequest(nodes=nodes)),
        )


# ---------------------------------------------------------------------------
# Publish atomicity, what an update costs, and the lazy fallback refit
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tencent():
    from repro.datasets import load_dataset

    return load_dataset("tencent", scale=0.004, seed=0)


def sgc_for(graph, seed=0):
    from repro.models import SGC

    return SGC(graph.num_features, graph.num_classes, k_hops=2, seed=seed)


def hub_batch(graph, update_id="hub-1"):
    """One new edge on the highest-degree node plus a loud feature row."""
    hub = int(np.argmax(graph.degrees()))
    row = graph.adj.indices[graph.adj.indptr[hub]:graph.adj.indptr[hub + 1]]
    other = next(v for v in range(graph.num_nodes)
                 if v != hub and v not in set(row.tolist()))
    values = 1e3 * np.random.default_rng(3).standard_normal(
        (1, graph.num_features)
    )
    return hub, UpdateBatch(
        update_id=update_id, add_edges=[(hub, other)],
        feature_updates=([hub], values),
    )


class TestPublishAtomicity:
    def test_predict_before_publish_serves_the_published_graph(self, tencent):
        graph = clone_graph(tencent)
        hub, batch = hub_batch(graph)
        after = clone_graph(tencent)
        apply_batch(after, batch)
        reference = [sgc_for(g).setup(g).predict() for g in (graph, after)]
        neighbours = graph.adj.indices[
            graph.adj.indptr[hub]:graph.adj.indptr[hub] + 15
        ]
        nodes = np.unique(np.concatenate([[hub], neighbours]))
        changed = reference[0][nodes].argmax(1) != reference[1][nodes].argmax(1)
        assert changed.any()  # otherwise a torn read would not show

        seen = {}

        def hook(stage):
            if stage == "pre-publish":
                seen["result"] = engine.predict(PredictRequest(nodes=nodes))
                seen["version"] = engine.graph_version
                seen["key"] = engine._current_store_key()

        engine = InferenceEngine(
            sgc_for(graph), graph, batch_window_ms=1.0,
            registry=MetricsRegistry(), update_fault_hook=hook,
        )
        engine.predict(PredictRequest(nodes=np.arange(64)))
        engine.apply_update(batch)
        keys = {seen["key"]: reference[0],
                engine._current_store_key(): reference[1]}
        # Served rows come from the graph whose version was current.
        assert seen["version"] == 0
        assert seen["result"]["classes"] == reference[0][nodes].argmax(1).tolist()
        served = engine.predict(PredictRequest(nodes=nodes))
        assert engine.graph_version == 1
        assert served["classes"] == reference[1][nodes].argmax(1).tolist()
        # No key holds rows computed on another graph.
        store = engine.logit_store
        for key in store.keys():
            assert key in keys, key
            clean = np.flatnonzero(~store._stale.get(
                key, np.zeros(store._entries[key].shape[0], dtype=bool)
            ))
            rows = store.get_rows(key, clean)
            np.testing.assert_allclose(rows, keys[key][clean], rtol=1e-9)
            assert np.array_equal(rows.argmax(1), keys[key][clean].argmax(1))


class TestUpdateCost:
    def test_update_touches_only_what_it_changed(self, tencent, monkeypatch):
        with perf_mode():
            graph = clone_graph(tencent)
            fallback = ShallowFallback(graph, k_hops=2)
            engine = InferenceEngine(
                sgc_for(graph), graph, fallback=fallback,
                batch_window_ms=1.0, registry=MetricsRegistry(),
            )
            # A restricted miss: put_rows creates the store entry.
            engine.predict(PredictRequest(nodes=np.arange(64)))
            hashed, fits = [], []
            real_hash = propcache.array_fingerprint
            real_fit = ShallowFallback.__init__
            monkeypatch.setattr(
                propcache, "array_fingerprint",
                lambda array: hashed.append(array.shape) or real_hash(array),
            )
            monkeypatch.setattr(
                ShallowFallback, "__init__",
                lambda self, *a, **k: fits.append(1) or real_fit(self, *a, **k),
            )
            cache = propcache.get_cache()
            misses = cache.misses
            hub, batch = hub_batch(graph)
            result = engine.apply_update(batch)
            assert result["applied"] and result["cache_powers_migrated"] == 2
            assert cache.misses == misses
            assert fits == [] and engine.fallback is fallback
            assert hashed == []
            # The operator's fingerprint was derived, not rehashed.
            assert engine.model._norm_adj.fingerprint.startswith("d")

            # The next restricted miss repairs the migrated entry in place.
            key = engine._current_store_key()
            entry = engine.logit_store._entries[key]
            assert engine.logit_store.get_rows(key, [hub]) is None
            served = engine.predict(PredictRequest(nodes=np.asarray([hub])))
            assert served["cached"] is False
            assert engine.logit_store._entries[key] is entry
            assert engine.logit_store.get_rows(key, [hub]) is not None

            # A frozen buffer is hashed at most once: a second cold
            # cache propagating the same features hashes nothing.
            operator = engine.model._norm_adj
            features = propcache.freeze(np.array(engine.model._features.data))
            first = propcache.PropagationCache().propagate_chain(
                operator, features, 2
            )
            assert hashed == [features.shape]
            second = propcache.PropagationCache().propagate_chain(
                operator, features, 2
            )
            assert hashed == [features.shape]
            for a, b in zip(first, second):
                assert np.array_equal(a, b)


class TestLazyFallback:
    @pytest.mark.parametrize("quantize", [False, True])
    def test_first_degraded_predict_refits_on_published_graph(
        self, graph, quantize
    ):
        from repro.perf.kernels import QuantizedHead
        from repro.serve.guard import CircuitBreaker

        g = clone_graph(graph)
        breaker = CircuitBreaker(min_requests=1, cooldown_s=3600.0)
        engine = make_engine(
            g, fallback=ShallowFallback(g, quantize=quantize), breaker=breaker
        )
        # Serve degraded once so the pre-update head owns a store entry.
        breaker.record_failure()
        assert engine.predict(PredictRequest(nodes=np.arange(4)))["degraded"]
        old = engine.fallback
        assert (old.version,) in engine.logit_store.keys()
        engine.apply_update(UpdateBatch(
            update_id="fb-1", add_edges=[(0, 50)],
            feature_updates=([3], np.full((1, g.num_features), 2.0)),
        ))
        assert engine.fallback is old  # nothing refit on the update path

        nodes = np.arange(engine.graph.num_nodes)
        result = engine.predict(PredictRequest(nodes=nodes))
        assert result["degraded"] is True
        head = engine.fallback
        assert head is not old and head.graph is engine.graph
        assert head.version != old.version
        assert (old.version,) not in engine.logit_store.keys()
        # Bitwise the head a from-scratch fit on the published graph gets.
        scratch = ShallowFallback(engine.graph, quantize=quantize)
        assert np.array_equal(head.weight, scratch.weight)
        assert np.array_equal(head.bias, scratch.bias)
        assert result["classes"] == scratch.full_logits().argmax(1).tolist()
        # The fit-time audit still decides whether the int8 head is kept.
        propagated = head._propagated
        float_argmax = (propagated @ head.weight + head.bias).argmax(1)
        audit = np.array_equal(
            QuantizedHead(head.weight, head.bias).logits(propagated).argmax(1),
            float_argmax,
        )
        assert (head.quantized is not None) == (quantize and audit)


# ---------------------------------------------------------------------------
# HTTP surface: /graph/update, version fencing, client retry
# ---------------------------------------------------------------------------

class TestHTTPSurface:
    def test_update_then_predict_reflects_new_graph(self, graph, tmp_path):
        engine = make_engine(
            clone_graph(graph), wal=GraphMutationLog.in_dir(tmp_path)
        )
        with ModelServer(engine, port=0, registry=MetricsRegistry()) as server:
            status, body, headers = post_json(server.url, "/predict", {"nodes": [0]})
            assert status == 200
            assert headers[GRAPH_VERSION_HEADER] == "0"
            status, body, headers = post_json(
                server.url, "/graph/update",
                {"update_id": "http-1", "add_edges": [[0, 50]]},
            )
            assert status == 200
            assert body["applied"] is True and body["graph_version"] == 1
            assert body["latency_ms"] >= 0
            assert headers[GRAPH_VERSION_HEADER] == "1"
            status, body, headers = post_json(server.url, "/predict", {"nodes": [0]})
            assert status == 200
            assert headers[GRAPH_VERSION_HEADER] == "1"
            # Served prediction matches a from-scratch engine on the
            # mutated graph.
            fresh = make_engine(engine.graph, fastpath=False)
            direct = fresh._full_logits(PredictRequest(nodes=np.asarray([0])))
            assert body["classes"] == [int(np.argmax(direct[0]))]

    def test_version_fence_rejects_lagging_replica(self, graph):
        engine = make_engine(clone_graph(graph))
        with ModelServer(engine, port=0, registry=MetricsRegistry()) as server:
            status, body, _ = post_json(
                server.url, "/predict", {"nodes": [0]},
                headers={GRAPH_VERSION_HEADER: "3"},
            )
            assert status == 409
            assert body["error"]["code"] == "graph_version_conflict"
            assert body["error"]["detail"] == {"have": 0, "want": 3}
            status, _, _ = post_json(
                server.url, "/predict", {"nodes": [0]},
                headers={GRAPH_VERSION_HEADER: "0"},
            )
            assert status == 200
            status, body, _ = post_json(
                server.url, "/predict", {"nodes": [0]},
                headers={GRAPH_VERSION_HEADER: "garbage"},
            )
            assert status == 400
            assert body["error"]["code"] == "invalid_graph_version"

    def test_client_update_graph_and_duplicate_ack(self, graph, tmp_path):
        engine = make_engine(
            clone_graph(graph), wal=GraphMutationLog.in_dir(tmp_path)
        )
        with ModelServer(engine, port=0, registry=MetricsRegistry()) as server:
            client = ServeClient(server.url, retries=2, backoff_s=0.001)
            body = client.update_graph(
                "cli-1", add_edges=[(0, 50)], feature_updates={3: [1.0] * 12}
            )
            assert body["applied"] is True and body["graph_version"] == 1
            # The idempotent replay is acknowledged, not re-applied.
            body = client.update_graph("cli-1", add_edges=[(0, 50)])
            assert body["duplicate"] is True
            # Growth through the client helper.
            body = client.update_graph(
                "cli-2", add_nodes=2,
                new_node_features=np.ones((2, 12)),
                add_edges=[(0, engine.graph.num_nodes)],
            )
            assert body["graph_version"] == 2
            assert body["num_nodes"] == graph.num_nodes + 2
            # A malformed batch is a non-retryable 4xx through the client.
            with pytest.raises(ServeClientError) as err:
                client.update_graph("cli-3", add_edges=[(0, 0)])
            assert err.value.status == 400

    def test_client_409_version_conflict_is_retried(self, graph):
        """A scripted 409 -> 200 sequence: the client replays and counts."""
        import http.server as http_server

        class Handler(http_server.BaseHTTPRequestHandler):
            def do_POST(self):
                script = self.server.script
                status, body = script.pop(0) if script else (200, {"ok": True})
                payload = json.dumps(body).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        conflict = {"error": {"code": "graph_version_conflict",
                              "message": "behind", "detail": {"have": 0, "want": 1}}}
        other_409 = {"error": {"code": "graph_conflict", "message": "nope"}}
        server = http_server.HTTPServer(("127.0.0.1", 0), Handler)
        server.script = [(409, conflict), (200, {"ok": True}), (409, other_409)]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{server.server_address[1]}"
            client = ServeClient(url, retries=2, backoff_s=0.0, jitter=0.0)
            client.sleep = lambda s: None
            status, body = client.request("POST", "/predict", {"nodes": [0]})
            assert status == 200 and body == {"ok": True}
            assert client.stats()["client.version_conflicts"] == 1
            assert client.stats()["client.retries"] == 1
            # Any other 409 fails fast (no retry, no conflict count).
            status, body = client.request("POST", "/predict", {"nodes": [0]})
            assert status == 409
            assert client.stats()["client.version_conflicts"] == 1
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


# ---------------------------------------------------------------------------
# Fleet: broadcast, version lag, crash-replay under load
# ---------------------------------------------------------------------------

def make_fleet(graph, wal_dir, **overrides):
    """A WAL-backed fleet tuned for test speed (tight probe/backoff)."""
    config = dict(
        workers=2,
        probe_interval_s=0.05,
        backoff_base_s=0.02,
        backoff_max_s=0.5,
        stable_after_s=0.25,
        start_timeout_s=30.0,
        drain_timeout_s=5.0,
        store_wait_s=10.0,
        wal_dir=str(wal_dir),
    )
    config.update(overrides)
    return ServingFleet(
        make_engine(clone_graph(graph), model_name="gcn"),
        FleetConfig(**config),
    )


@pytest.mark.fleet
class TestDynamicFleet:
    def test_broadcast_applies_everywhere_and_lag_reaches_zero(
        self, graph, tmp_path
    ):
        with make_fleet(graph, tmp_path / "wal") as fleet:
            assert fleet.wait_ready(timeout_s=30.0)
            status, body, _ = post_json(
                fleet.url, "/graph/update",
                {"update_id": "fleet-1", "add_edges": [[0, 50]]},
            )
            assert status == 200
            assert body["applied"] is True and body["graph_version"] == 1
            replies = [r for r in body["replicas"] if "status" in r]
            assert len(replies) == 2
            assert all(r["status"] == 200 for r in replies)
            assert all(r["body"]["graph_version"] == 1 for r in replies)

            # /readyz: the fleet max version, and every replica's probe
            # catches up to zero lag.
            def lag_zero():
                status, ready = get_json(fleet.url + "/readyz")
                return (
                    status == 200
                    and ready["graph_version"] == 1
                    and all(
                        r["version_lag"] == 0 for r in ready["replicas"]
                    )
                )

            assert wait_for(lag_zero, timeout_s=15.0)

            # Fenced predict at the new version routes fine.
            status, body, _ = post_json(
                fleet.url, "/predict", {"nodes": [0]},
                headers={GRAPH_VERSION_HEADER: "1"},
            )
            assert status == 200 and "classes" in body

            # Broadcast idempotency: every replica acks the duplicate.
            status, body, _ = post_json(
                fleet.url, "/graph/update",
                {"update_id": "fleet-1", "add_edges": [[0, 50]]},
            )
            assert status == 200 and body["graph_version"] == 1
            assert all(
                r["body"]["duplicate"] is True
                for r in body["replicas"] if "status" in r
            )

    def test_sigkill_mid_apply_replays_wal_zero_visible_failures(
        self, graph, tmp_path
    ):
        """The fleet chaos case from the issue: one replica SIGKILLed
        between its WAL commit and the publish, under predict load.  The
        sibling applies, the supervisor re-forks the victim, WAL replay
        converges it to the committed version, and no client predict
        fails."""
        chaos = CrashMidApply(stage="pre-publish", times=1, sig=signal.SIGKILL)
        with make_fleet(
            graph, tmp_path / "wal",
            update_fault_hook=chaos, restart_budget=10,
        ) as fleet:
            assert fleet.wait_ready(timeout_s=30.0)
            stop = threading.Event()
            outcomes, lock = [], threading.Lock()

            def hammer(worker_id):
                client = ServeClient(
                    fleet.url, retries=8, backoff_s=0.05, max_backoff_s=1.0,
                )
                n = 0
                while not stop.is_set():
                    try:
                        ok = "classes" in client.predict(
                            [(worker_id + n) % graph.num_nodes]
                        )
                    except Exception:  # noqa: BLE001 - recorded
                        ok = False
                    with lock:
                        outcomes.append(ok)
                    n += 1

            threads = [
                threading.Thread(target=hammer, args=(t,), daemon=True)
                for t in range(2)
            ]
            for thread in threads:
                thread.start()
            try:
                status, body, _ = post_json(
                    fleet.url, "/graph/update",
                    {"update_id": "chaos-1", "add_edges": [[0, 50]]},
                )
                # The victim died mid-apply (transport error at the
                # router); the surviving replica committed.
                assert status == 200
                assert body["applied"] is True
                assert body["graph_version"] == 1
                assert chaos.fired == 1
                time.sleep(0.5)  # load through the one-replica window
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=30.0)

            assert fleet.wait_converged(timeout_s=30.0)

            # The re-forked victim recovered by replaying its WAL.
            def recovered():
                status, ready = get_json(fleet.url + "/readyz")
                return (
                    status == 200
                    and ready["graph_version"] == 1
                    and len(ready["replicas"]) == 2
                    and all(
                        r["version_lag"] == 0 for r in ready["replicas"]
                    )
                )

            assert wait_for(recovered, timeout_s=20.0)
            snap = fleet.snapshot()
            assert snap["supervisor"]["total_restarts"] >= 1

            # Zero client-visible predict failures through the crash.
            assert len(outcomes) > 10
            assert outcomes.count(False) == 0, (
                f"{outcomes.count(False)}/{len(outcomes)} predicts failed"
            )

            # Re-sending the crashed update id is a fleet-wide no-op ack,
            # and the next update lands on both replicas.
            status, body, _ = post_json(
                fleet.url, "/graph/update",
                {"update_id": "chaos-1", "add_edges": [[0, 50]]},
            )
            assert status == 200 and body["graph_version"] == 1
            assert all(
                r["body"]["duplicate"] is True
                for r in body["replicas"] if "status" in r
            )
            status, body, _ = post_json(
                fleet.url, "/graph/update",
                {"update_id": "chaos-2", "remove_edges": [[0, 50]]},
            )
            assert status == 200
            assert body["applied"] is True and body["graph_version"] == 2
