"""The multi-process serving fleet: router + supervised replicas.

``python -m repro serve --workers N`` assembles one
:class:`ServingFleet`:

- the parent process builds the :class:`~repro.serve.InferenceEngine`
  once, binds the :class:`~repro.serve.router.FleetRouter` port, and
  creates the cross-process
  :class:`~repro.perf.logitstore.SharedLogitStore` segment;
- N replica processes are **forked** from that pristine parent state by
  the :class:`~repro.serve.supervisor.Supervisor` — a restart is a
  cheap re-fork, so a crashed replica is back serving in milliseconds
  with warm code and a warm engine;
- each replica runs a full single-process
  :class:`~repro.serve.ModelServer` (validation, breaker, shedder,
  degradation ladder — everything from PR 4–6) on an ephemeral port it
  reports back over a pipe;
- all replicas plug the shared store in as their engine's
  ``logit_store``, so one replica's cold forward warms the whole fleet
  and a stampede against N replicas still runs **one** forward
  (the store's miss-leases elect a fleet-wide leader; the in-process
  ``SingleFlight`` keeps each replica's own threads coalesced).

Fork-safety: replicas are forked while the parent holds no engine or
store locks (the parent never serves requests itself), and the first
thing a replica does is close its inherited copy of the router's listen
socket, install a **fresh** metrics registry and a disabled tracer, and
replace the engine's in-process ``SingleFlight`` — nothing that could
carry another process's lock state is reused.

Shutdown (SIGTERM) drains in order: the router's ``/readyz`` goes 503
first (balancers stop sending), in-flight proxied requests finish, then
workers get SIGTERM (each fails its own ``/readyz``, finishes its
in-flight requests within the drain timeout, and exits 0), and finally
the shared segment is unlinked.
"""

from __future__ import annotations

import multiprocessing
import pathlib
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.obs import MetricsRegistry, Tracer, get_logger, set_tracer
from repro.perf.logitstore import SharedLogitStore
from repro.resilience.wal import GraphMutationLog
from repro.serve.fastpath import SingleFlight
from repro.serve.router import FleetRouter
from repro.serve.server import ModelServer
from repro.serve.supervisor import Supervisor

_LOG = get_logger("serve.fleet")

__all__ = ["FleetConfig", "ServingFleet"]


@dataclass
class FleetConfig:
    """Everything the fleet parent needs to wire router + replicas."""

    workers: int = 2
    host: str = "127.0.0.1"
    port: int = 0                      # router bind port (0 = ephemeral)

    # Per-replica ModelServer knobs (mirror the single-process CLI).
    max_inflight: int = 8
    max_body_bytes: int = 1 << 20
    max_nodes: int = 4096
    default_deadline_ms: Optional[float] = None
    checkpoint_source: Optional[str] = None
    drain_timeout_s: float = 10.0

    # Supervision policy (see repro.serve.supervisor).
    backoff_base_s: float = 0.1
    backoff_max_s: float = 5.0
    restart_budget: int = 5
    budget_window_s: float = 30.0
    stable_after_s: float = 5.0
    start_timeout_s: float = 30.0

    # Router policy.
    max_inflight_per_replica: int = 8
    probe_interval_s: float = 0.25
    probe_timeout_s: float = 1.0
    proxy_timeout_s: float = 30.0

    # Cross-process logit store (shared_store=False falls back to each
    # replica's private in-process LogitStore).
    shared_store: bool = True
    store_slots: int = 8
    store_slot_bytes: int = 8 << 20
    store_wait_s: float = 2.0
    store_lease_ttl_s: float = 30.0

    # Dynamic graph updates: each replica opens its own
    # GraphMutationLog under ``<wal_dir>/replica-<index>/`` and replays
    # it before binding, so a re-forked replica (which inherits the
    # parent's pristine version-0 engine) catches back up to the last
    # committed graph_version on its own.
    wal_dir: Optional[str] = None

    # Test/chaos hook: called as ``start_hook(index)`` in the replica
    # process before it binds — SlowStart sleeps here, FailStart raises.
    start_hook: Optional[Callable[[int], None]] = field(
        default=None, repr=False
    )

    # Test/chaos hook: installed as the replica engine's
    # ``update_fault_hook`` (stages "pre-wal" / "wal-committed" /
    # "pre-publish") — CrashMidApply kills or raises here.
    update_fault_hook: Optional[Callable[[str], None]] = field(
        default=None, repr=False
    )


def _worker_main(
    index: int,
    engine,
    conn,
    config: FleetConfig,
    shared_store: Optional[SharedLogitStore],
    inherited_sockets: list,
) -> None:
    """Replica entry point (runs in the forked child process)."""
    # The fork duplicated the router's listening socket; holding it open
    # here would keep the port alive after the parent dies.
    for sock in inherited_sockets:
        try:
            sock.close()
        except OSError:
            pass
    # Ctrl-C hits the whole process group; replicas ignore it and wait
    # for the parent's orderly SIGTERM so the drain sequence stays
    # parent-driven.
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    # Fresh per-replica observability: the inherited process-global
    # registry/tracer may carry parent thread state, and per-replica
    # metrics are what the router aggregates under /metrics.
    registry = MetricsRegistry()
    tracer = Tracer(enabled=False)
    set_tracer(tracer)
    engine.registry = registry
    engine.tracer = tracer
    engine._singleflight = SingleFlight()
    if shared_store is not None:
        engine.logit_store = shared_store
    if config.update_fault_hook is not None:
        engine.update_fault_hook = config.update_fault_hook
    if config.wal_dir is not None:
        # Per-replica WAL: the forked engine starts at the parent's
        # pristine graph_version 0, so replay brings this replica — and
        # any later re-fork of it — back to the last committed version.
        wal_path = pathlib.Path(config.wal_dir) / f"replica-{index}"
        wal_path.mkdir(parents=True, exist_ok=True)
        engine.attach_wal(GraphMutationLog.in_dir(wal_path))

    if config.start_hook is not None:
        config.start_hook(index)  # chaos: may sleep, raise, or _exit

    server = ModelServer(
        engine,
        host=config.host,
        port=0,
        registry=registry,
        tracer=tracer,
        max_inflight=config.max_inflight,
        max_body_bytes=config.max_body_bytes,
        max_nodes=config.max_nodes,
        default_deadline_ms=config.default_deadline_ms,
        checkpoint_source=config.checkpoint_source,
    )

    def _drain_and_exit() -> None:
        server.begin_drain()
        server.drain(config.drain_timeout_s)
        server._httpd.shutdown()

    def _on_sigterm(signum, frame) -> None:
        # serve_forever blocks this (main) thread; drain elsewhere.
        threading.Thread(target=_drain_and_exit, daemon=True).start()

    signal.signal(signal.SIGTERM, _on_sigterm)

    conn.send(server.port)
    conn.close()
    try:
        server.serve_forever()
    finally:
        server._httpd.server_close()
    sys.exit(0)


class ServingFleet:
    """N supervised replica servers behind one health-aware router.

    The fleet is built from one *template* engine: the parent
    constructs it (checkpoint load, fallback fit, propagation cache
    warm-up) exactly once, and every replica — including every restart
    — is forked from that pristine state.

    Usage::

        fleet = ServingFleet(engine, FleetConfig(workers=4)).start()
        fleet.wait_ready(timeout_s=30)
        ... ServeClient(fleet.url) ...
        fleet.shutdown()
    """

    def __init__(
        self,
        engine,
        config: Optional[FleetConfig] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
        tracer=None,
    ) -> None:
        self.config = config if config is not None else FleetConfig()
        self.engine = engine
        cfg = self.config
        self._ctx = multiprocessing.get_context("fork")
        self.store: Optional[SharedLogitStore] = None
        if cfg.shared_store:
            self.store = SharedLogitStore(
                slots=cfg.store_slots,
                slot_bytes=cfg.store_slot_bytes,
                lock=self._ctx.Lock(),
                wait_s=cfg.store_wait_s,
                lease_ttl_s=cfg.store_lease_ttl_s,
            )
        self.router = FleetRouter(
            host=cfg.host,
            port=cfg.port,
            replica_host=cfg.host,
            max_inflight_per_replica=cfg.max_inflight_per_replica,
            probe_interval_s=cfg.probe_interval_s,
            probe_timeout_s=cfg.probe_timeout_s,
            proxy_timeout_s=cfg.proxy_timeout_s,
            registry=registry,
            tracer=tracer,
            max_body_bytes=cfg.max_body_bytes,
        )
        self.supervisor = Supervisor(
            self._spawn_worker,
            cfg.workers,
            backoff_base_s=cfg.backoff_base_s,
            backoff_max_s=cfg.backoff_max_s,
            restart_budget=cfg.restart_budget,
            budget_window_s=cfg.budget_window_s,
            stable_after_s=cfg.stable_after_s,
            start_timeout_s=cfg.start_timeout_s,
            on_up=self.router.register,
            on_down=self.router.unregister,
            registry=self.router.registry,
        )
        self.router.supervisor = self.supervisor
        self._started = False
        self._shutdown = False

    # -- worker factory (called by the supervisor) ---------------------
    def _spawn_worker(self, index: int):
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                index, self.engine, child_conn, self.config, self.store,
                [self.router.listen_socket],
            ),
            name=f"repro-replica-{index}",
            daemon=True,  # stray replicas die with the parent
        )
        process.start()
        child_conn.close()  # parent's copy, so EOF surfaces child death
        return process, parent_conn

    # -- lifecycle ------------------------------------------------------
    @property
    def url(self) -> str:
        return self.router.url

    def start(self) -> "ServingFleet":
        if self._started:
            raise RuntimeError("fleet already started")
        self._started = True
        self.supervisor.start()
        self.router.start()
        _LOG.info(
            "fleet: %d replicas behind %s", self.config.workers, self.url
        )
        return self

    def serve_forever(self) -> None:
        """Blocking variant for the CLI (workers already supervised)."""
        if not self._started:
            self._started = True
            self.supervisor.start()
        self.router.serve_forever()

    def wait_ready(
        self, timeout_s: float = 30.0, min_replicas: Optional[int] = None
    ) -> bool:
        """Block until ``min_replicas`` (default: all) are routable."""
        want = min_replicas if min_replicas is not None else self.config.workers
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.router.healthy_count() >= want:
                return True
            time.sleep(0.02)
        return self.router.healthy_count() >= want

    def wait_converged(self, timeout_s: float = 30.0) -> bool:
        """Block until every non-quarantined replica is UP and routable.

        This is the chaos-test convergence condition: after a SIGKILL
        storm the fleet is "recovered" when the supervisor has restarted
        everything it is still allowed to restart and the router can
        route to all of it.
        """
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            snap = self.supervisor.snapshot()
            want = snap["workers"] - snap["quarantined"]
            if snap["up"] >= want and self.router.healthy_count() >= want:
                return True
            time.sleep(0.05)
        return False

    def shutdown(self, drain_timeout_s: Optional[float] = None) -> None:
        """Graceful drain: router readyz → in-flight → workers → port."""
        if self._shutdown:
            return
        self._shutdown = True
        timeout = (
            drain_timeout_s if drain_timeout_s is not None
            else self.config.drain_timeout_s
        )
        _LOG.info("fleet: draining (timeout %.1fs)", timeout)
        self.router.begin_drain()
        self.router.wait_idle(timeout)
        self.supervisor.stop(drain_timeout_s=timeout)
        self.router.stop()
        if self.store is not None:
            self.store.unlink()
        _LOG.info("fleet: stopped")

    def __enter__(self) -> "ServingFleet":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False

    # -- chaos / introspection -----------------------------------------
    def kill_replica(self, index: int, sig: int = signal.SIGKILL) -> bool:
        """Deliver ``sig`` to replica ``index`` (chaos testing)."""
        return self.supervisor.signal(index, sig)

    def live_indices(self) -> List[int]:
        return self.supervisor.live_indices()

    def snapshot(self) -> dict:
        return {
            "url": self.url,
            "workers": self.config.workers,
            "draining": self.router.draining,
            "supervisor": self.supervisor.snapshot(),
            "router": [r.snapshot() for r in self.router.replicas()],
            "store": self.store.info() if self.store is not None else None,
        }
