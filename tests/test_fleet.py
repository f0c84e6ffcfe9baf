"""The multi-process serving fleet, exercised with real forked replicas.

Acceptance contract under test: ``ServingFleet`` keeps serving through
replica death — the supervisor restarts crashed workers with backoff,
quarantines a crash-looper after its restart budget, the router retries
a mid-request death on exactly one sibling, and one replica's cold
forward warms the whole fleet through the cross-process
:class:`~repro.perf.SharedLogitStore`.

The chaos soak (random SIGKILLs under stampede load) is marked ``slow``
on top of ``fleet``: run it with ``-m "fleet and slow"``.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.datasets import generate_dcsbm_graph, generate_features
from repro.datasets.splits import per_class_split
from repro.graphs import Graph
from repro.obs import MetricsRegistry
from repro.perf import SharedLogitStore
from repro.resilience import FailStart, HangWorker, KillWorker, SlowStart
from repro.serve import (
    FleetConfig,
    InferenceEngine,
    ServeClient,
    ServingFleet,
    ShallowFallback,
    Supervisor,
)

pytestmark = [pytest.mark.fleet, pytest.mark.serve]


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def graph():
    rng = np.random.default_rng(11)
    adj, labels = generate_dcsbm_graph(120, 3, 420, homophily=0.9, rng=rng)
    features = generate_features(labels, 16, rng=rng)
    train, val, test = per_class_split(labels, 8, 12, 30, rng=rng)
    return Graph(
        adj=adj, features=features, labels=labels,
        train_mask=train, val_mask=val, test_mask=test,
        name="fleet-test",
    )


def make_engine(graph):
    from repro.models import build_model

    model = build_model(
        "gcn", graph.num_features, graph.num_classes,
        hidden=8, num_layers=2, dropout=0.0, seed=0,
    )
    return InferenceEngine(
        model, graph,
        fallback=ShallowFallback(graph, k_hops=2),
        registry=MetricsRegistry(),
    )


def make_fleet(graph, **overrides):
    """A fleet tuned for test speed: tight probe/backoff timers."""
    config = dict(
        workers=2,
        probe_interval_s=0.05,
        backoff_base_s=0.02,
        backoff_max_s=0.5,
        stable_after_s=0.25,
        start_timeout_s=30.0,
        drain_timeout_s=5.0,
        store_wait_s=10.0,
    )
    config.update(overrides)
    return ServingFleet(make_engine(graph), FleetConfig(**config))


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


# ---------------------------------------------------------------------------
# SharedLogitStore: the cross-process warm store + leader election
# ---------------------------------------------------------------------------

KEY = ("model-v1", "graph-abc", 2)


class TestSharedLogitStore:
    def test_miss_leases_then_put_roundtrip(self):
        store = SharedLogitStore(slots=2, slot_bytes=1 << 16)
        try:
            assert store.get(KEY) is None          # miss: we now lead
            assert store.get(KEY) is None          # our own lease: still lead
            logits = np.arange(12, dtype=np.float64).reshape(4, 3)
            out = store.put(KEY, logits)
            assert not out.flags.writeable
            hit = store.get(KEY)
            np.testing.assert_array_equal(hit, logits)
            assert not hit.flags.writeable
            shared = store.info()["shared"]
            assert shared["puts"] == 1
            assert shared["leases"] == 1
            assert len(store) == 1
        finally:
            store.unlink()

    def test_put_rejects_oversize_and_releases_lease(self):
        store = SharedLogitStore(slots=2, slot_bytes=1024)
        try:
            assert store.get(KEY) is None
            big = np.ones((64, 64))                # 32 KiB >> 1 KiB slot
            out = store.put(KEY, big)
            assert out is big and not out.flags.writeable
            assert len(store) == 0
            assert store.rejected == 1
            # The lease was released, so the next miss can lead again
            # instead of waiting out a dead lease.
            assert store.get(KEY) is None
            assert store.info()["shared"]["leases"] == 2
        finally:
            store.unlink()

    def test_put_rejects_unsupported_dtype_and_ndim(self):
        store = SharedLogitStore(slots=2, slot_bytes=1 << 16)
        try:
            store.put(("k1",), np.ones((2, 2), dtype=np.int64))
            store.put(("k2",), np.ones(4))         # 1-D
            assert len(store) == 0
            assert store.rejected == 2
        finally:
            store.unlink()

    def test_invalidate_version_drops_only_that_version(self):
        store = SharedLogitStore(slots=4, slot_bytes=1 << 16)
        try:
            store.put(("v1", "g"), np.ones((2, 2)))
            store.put(("v2", "g"), np.ones((2, 2)))
            assert store.invalidate_version("v1") == 1
            assert store.get(("v2", "g")) is not None
            assert len(store) == 1
            assert store.info()["shared"]["invalidations"] == 1
        finally:
            store.unlink()

    def test_clear(self):
        store = SharedLogitStore(slots=2, slot_bytes=1 << 16)
        try:
            store.put(KEY, np.ones((2, 2)))
            store.clear()
            assert len(store) == 0
            assert store.nbytes == 0
        finally:
            store.unlink()

    def test_cross_process_coalescing(self):
        """A waiter in one process gets the leader's forward from another."""
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        store = SharedLogitStore(
            slots=2, slot_bytes=1 << 16, lock=ctx.Lock(), wait_s=10.0,
        )
        leased = ctx.Event()

        def leader():
            assert store.get(KEY) is None          # child claims the lease
            leased.set()
            time.sleep(0.15)                       # "the forward"
            store.put(KEY, np.full((3, 3), 7.0))

        child = ctx.Process(target=leader)
        try:
            child.start()
            assert leased.wait(10.0)
            value = store.get(KEY)                 # other-pid lease: wait
            assert value is not None
            np.testing.assert_array_equal(value, np.full((3, 3), 7.0))
            child.join(timeout=10.0)
            shared = store.info()["shared"]
            assert shared["puts"] == 1
            assert shared["coalesced_hits"] == 1
        finally:
            if child.is_alive():
                child.terminate()
                child.join(timeout=5.0)
            store.unlink()

    def test_dead_leader_lease_expires_and_is_reclaimed(self):
        """A leader that dies mid-forward must not wedge the fleet."""
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        store = SharedLogitStore(
            slots=2, slot_bytes=1 << 16, lock=ctx.Lock(),
            lease_ttl_s=0.1, wait_s=5.0,
        )

        def doomed_leader():
            store.get(KEY)                         # lease, never put
            os._exit(0)

        child = ctx.Process(target=doomed_leader)
        try:
            child.start()
            child.join(timeout=10.0)
            # The dead pid's lease expires after lease_ttl_s; the next
            # miss reclaims it and leads.
            assert store.get(KEY) is None
            assert store.info()["shared"]["lease_expirations"] >= 1
        finally:
            store.unlink()


# ---------------------------------------------------------------------------
# Supervisor: restart with backoff, quarantine on crash-loop
# ---------------------------------------------------------------------------

def _stub_worker(conn, fake_port, behavior):
    if behavior == "crash":
        os._exit(3)
    conn.send(fake_port)
    conn.close()
    while True:
        time.sleep(60)


def stub_factory(ctx, behavior_for=None):
    """A worker factory whose workers just report a port and sleep."""
    def factory(index):
        behavior = (behavior_for or {}).get(index, "ok")
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_stub_worker, args=(child_conn, 10000 + index, behavior),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return process, parent_conn
    return factory


class TestSupervisor:
    def make(self, behavior_for=None, **overrides):
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        kwargs = dict(
            backoff_base_s=0.01, backoff_max_s=0.2,
            restart_budget=5, budget_window_s=30.0,
            stable_after_s=10.0, start_timeout_s=20.0,
            registry=MetricsRegistry(),
        )
        kwargs.update(overrides)
        return Supervisor(stub_factory(ctx, behavior_for), 2, **kwargs)

    def test_workers_report_up_with_ports(self):
        ups = []
        sup = self.make(on_up=lambda i, p: ups.append((i, p)))
        sup.start()
        try:
            assert wait_for(lambda: sup.snapshot()["up"] == 2)
            assert sorted(ups) == [(0, 10000), (1, 10001)]
            assert sorted(sup.live_indices()) == [0, 1]
        finally:
            sup.stop(drain_timeout_s=2.0)
        assert all(r["state"] == "stopped" for r in sup.snapshot()["replicas"])

    def test_killed_worker_is_restarted(self):
        downs = []
        sup = self.make(on_down=downs.append)
        sup.start()
        try:
            assert wait_for(lambda: sup.snapshot()["up"] == 2)
            assert sup.signal(0, signal.SIGKILL)
            assert wait_for(
                lambda: sup.snapshot()["up"] == 2
                and sup.snapshot()["replicas"][0]["restarts"] == 1
            )
            assert downs == [0]
            replica = sup.snapshot()["replicas"][0]
            assert replica["last_exit_code"] == -signal.SIGKILL
            assert sup.registry.counter("fleet.worker_deaths").value == 1
            assert sup.registry.counter("fleet.restarts").value == 1
        finally:
            sup.stop(drain_timeout_s=2.0)

    def test_crash_looper_is_quarantined_sibling_survives(self):
        sup = self.make(
            behavior_for={0: "crash"}, restart_budget=2, budget_window_s=60.0,
        )
        sup.start()
        try:
            assert wait_for(
                lambda: sup.snapshot()["replicas"][0]["state"] == "quarantined"
            )
            snap = sup.snapshot()
            assert snap["quarantined"] == 1
            assert snap["up"] == 1                  # fleet degraded to N-1
            # budget allows `restart_budget` deaths in-window; the next
            # death trips quarantine, so exactly budget restarts happened.
            assert snap["replicas"][0]["restarts"] == 2
            assert sup.registry.counter("fleet.quarantined").value == 1
            # Quarantine is sticky: no further respawn is scheduled.
            restarts = snap["replicas"][0]["restarts"]
            time.sleep(0.3)
            assert sup.snapshot()["replicas"][0]["restarts"] == restarts
        finally:
            sup.stop(drain_timeout_s=2.0)


# ---------------------------------------------------------------------------
# Fleet end to end: routing, shared warm store, sibling retry, drain
# ---------------------------------------------------------------------------

class TestFleetEndToEnd:
    def test_routes_and_one_cold_forward_warms_the_fleet(self, graph):
        with make_fleet(graph) as fleet:
            assert fleet.wait_ready(timeout_s=30.0)
            client = ServeClient(fleet.url, retries=3)

            first = client.predict([0, 1, 2])
            assert first["cached"] is False         # the fleet-wide cold pass
            second = client.predict([5])
            assert second["cached"] is True         # warmed via shared store

            # Round-robin sent the two requests to different replicas,
            # yet the store saw exactly one forward fleet-wide.
            shared = fleet.store.info()["shared"]
            assert shared["puts"] == 1

            status, metrics = get_json(fleet.url + "/metrics")
            assert status == 200
            totals = metrics["fleet"]["totals"]
            assert totals["serve.requests"] == 2
            assert totals["serve.fastpath.hits"] >= 1
            per_replica = [
                r["routing"]["requests"]
                for r in metrics["replicas"].values()
            ]
            assert sorted(per_replica)[-2:] >= [1, 1]  # both replicas served

            status, fleet_view = get_json(fleet.url + "/fleet")
            assert status == 200
            assert fleet_view["supervisor"]["up"] == 2
            assert len(fleet_view["replicas"]) == 2

    def test_kill_mid_stream_zero_client_visible_failures(self, graph):
        with make_fleet(graph) as fleet:
            assert fleet.wait_ready(timeout_s=30.0)
            client = ServeClient(fleet.url, retries=5, backoff_s=0.05)
            client.predict([0])                     # warm the store

            assert fleet.kill_replica(0, signal.SIGKILL)
            for i in range(10):                     # straight through the hole
                body = client.predict([i])
                assert "classes" in body

            assert fleet.wait_converged(timeout_s=30.0)
            snap = fleet.snapshot()
            assert snap["supervisor"]["up"] == 2
            assert snap["supervisor"]["replicas"][0]["restarts"] == 1

    def test_flapping_replica_quarantined_fleet_degrades(self, graph):
        # Replica 0 dies in its start hook on every spawn; replica 1 is
        # healthy.  The supervisor must stop burning restarts on 0 and
        # keep serving on 1.
        def flaky_start(index):
            if index == 0:
                os._exit(3)

        with make_fleet(
            graph, start_hook=flaky_start,
            restart_budget=2, budget_window_s=60.0,
        ) as fleet:
            assert fleet.wait_ready(timeout_s=30.0, min_replicas=1)
            assert wait_for(
                lambda: fleet.supervisor.snapshot()["quarantined"] == 1,
                timeout_s=20.0,
            )
            snap = fleet.supervisor.snapshot()
            assert snap["replicas"][0]["state"] == "quarantined"
            assert snap["up"] == 1
            # Degraded to N-1 but still serving.
            body = ServeClient(fleet.url, retries=3).predict([0])
            assert "classes" in body
            assert fleet.wait_converged(timeout_s=10.0)

    def test_slow_start_is_tolerated(self, graph):
        slow = SlowStart(delay_s=0.4, times=1)
        with make_fleet(graph, start_hook=slow) as fleet:
            assert fleet.wait_ready(timeout_s=30.0)
            assert slow.fired >= 1                  # counted across processes
            assert ServeClient(fleet.url).predict([0])["classes"]

    def test_hung_replica_leaves_rotation_and_returns(self, graph):
        with make_fleet(graph, probe_timeout_s=0.3) as fleet:
            assert fleet.wait_ready(timeout_s=30.0)
            hang = HangWorker()
            hung = hang(fleet, index=0)
            assert hung == 0
            # SIGSTOP kills nothing, so only the probe can notice.
            assert wait_for(
                lambda: fleet.router.healthy_count() == 1, timeout_s=15.0
            )
            assert fleet.supervisor.snapshot()["up"] == 2  # not dead
            body = ServeClient(fleet.url, retries=3).predict([1])
            assert "classes" in body
            assert hang.resume(fleet, 0)
            assert wait_for(
                lambda: fleet.router.healthy_count() == 2, timeout_s=15.0
            )

    def test_drain_fails_readyz_then_stops_clean(self, graph):
        fleet = make_fleet(graph).start()
        try:
            assert fleet.wait_ready(timeout_s=30.0)
            status, body = get_json(fleet.url + "/readyz")
            assert status == 200 and body["ready"] is True
            fleet.router.begin_drain()
            status, body = get_json(fleet.url + "/readyz")
            assert status == 503 and body["reason"] == "draining"
        finally:
            fleet.shutdown()
        # Every worker exited via the SIGTERM drain path (exit 0), not a kill.
        for replica in fleet.supervisor.snapshot()["replicas"]:
            assert replica["state"] == "stopped"
            assert replica["last_exit_code"] in (None, 0)

    def test_cli_dry_run_smoke(self):
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.path.join(root, "src")
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "serve", "synthetic",
                "--workers", "2", "--dry-run", "--port", "0",
                "--layers", "2",
            ],
            capture_output=True, text=True, timeout=180, env=env, cwd=root,
        )
        assert proc.returncode == 0, proc.stderr
        assert "fleet: 2 x" in proc.stdout
        assert "dry run: 2/2 replicas came up" in proc.stdout


# ---------------------------------------------------------------------------
# Chaos soak: random SIGKILLs under stampede load  (-m "fleet and slow")
# ---------------------------------------------------------------------------

@pytest.mark.slow
class TestChaosSoak:
    def test_sigkill_storm_under_load_zero_failures(self, graph):
        with make_fleet(
            graph, workers=3, restart_budget=50, budget_window_s=60.0,
            max_inflight=16, max_inflight_per_replica=16,
        ) as fleet:
            assert fleet.wait_ready(timeout_s=60.0)

            stop = threading.Event()
            outcomes = []
            outcome_lock = threading.Lock()

            def hammer(worker_id):
                client = ServeClient(
                    fleet.url, retries=8, backoff_s=0.05, max_backoff_s=1.0,
                )
                n = 0
                while not stop.is_set():
                    try:
                        body = client.predict([(worker_id + n) % 100])
                        ok = "classes" in body
                    except Exception as exc:  # noqa: BLE001 - recorded
                        ok = False
                    with outcome_lock:
                        outcomes.append(ok)
                    n += 1

            threads = [
                threading.Thread(target=hammer, args=(t,), daemon=True)
                for t in range(4)
            ]
            for thread in threads:
                thread.start()

            chaos = KillWorker(rng=np.random.default_rng(7))
            kills = 0
            for _ in range(6):                      # ~3s of SIGKILL storm
                time.sleep(0.5)
                if chaos(fleet) is not None:
                    kills += 1

            stop.set()
            for thread in threads:
                thread.join(timeout=60.0)

            assert kills >= 3                       # the storm actually hit
            assert len(outcomes) > 20               # load actually flowed
            failed = outcomes.count(False)
            assert failed == 0, f"{failed}/{len(outcomes)} requests failed"
            # Convergence: every kill restarted, all replicas routable.
            assert fleet.wait_converged(timeout_s=60.0)
            snap = fleet.snapshot()
            assert snap["supervisor"]["up"] == 3
            assert snap["supervisor"]["total_restarts"] >= kills
