"""The front-of-fleet HTTP router: health-aware proxying with retry.

One :class:`FleetRouter` process fronts N replica
:class:`~repro.serve.ModelServer` processes.  Routing policy, in the
spirit of the source paper's node-aware depth gates: *per-replica*
health decides where a request goes, rather than a fixed global
assignment —

- **health-aware round-robin** — a replica is eligible when it is
  registered (the supervisor reported its port), marked healthy (a
  background prober hits each replica's ``/readyz`` — which already
  reflects that replica's breaker state — and any transport error
  during proxying marks it unhealthy instantly), and below its
  per-replica in-flight cap;
- **per-replica load shedding** — a replica at its in-flight cap is
  skipped; when *every* healthy replica is saturated the router sheds
  with a structured 429 rather than queueing;
- **sibling retry** — when the chosen replica dies mid-request
  (connection refused/reset, truncated response), the request is
  replayed on exactly one *different* healthy replica, for idempotent
  predicts only (``X-Idempotent: false`` opts a request out).  Replica
  *error responses* (4xx/503) pass through untouched — they are
  deliberate answers, not deaths;
- **drain** — :meth:`begin_drain` flips the router's ``/readyz`` to
  503 (load balancers stop sending), waits out in-flight proxies, then
  the fleet SIGTERMs the workers (see :mod:`repro.serve.fleet`).

``GET /metrics`` aggregates: router counters, the supervisor's restart
/ quarantine snapshot, and each live replica's own ``/metrics`` body
under ``replicas``, with the fleet-wide sums (requests, full forwards,
fast-path hits) precomputed under ``fleet.totals`` — that is how the
chaos tests (and you) verify one cold forward warmed N replicas.

Tracing: each proxied request runs under a ``serve.route`` root span
(continuing an inbound ``X-Trace-Id``); the sibling replay appears as
a child ``serve.retry_sibling`` span, and the replica continues the
same trace over the proxied ``X-Trace-Id`` header.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.obs import MetricsRegistry, get_logger, get_registry, get_tracer
from repro.serve.errors import Overloaded, ServeError
from repro.serve.frontdoor import (
    JSON_HEADERS,
    FrontDoorHandler,
    FrontDoorServer,
)

_LOG = get_logger("serve.fleet")

__all__ = ["Replica", "FleetRouter"]


class Replica:
    """Routing-table entry for one live replica."""

    def __init__(self, index: int, port: int, host: str) -> None:
        self.index = index
        self.host = host
        self.port = port
        self.healthy = True  # optimistic: the supervisor saw it bind
        self.inflight = 0
        self.requests = 0
        self.failures = 0
        self.graph_version = 0  # last version reported by /readyz probes
        self._lock = threading.Lock()

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    def try_acquire(self, cap: int) -> bool:
        with self._lock:
            if self.inflight >= cap:
                return False
            self.inflight += 1
            self.requests += 1
            return True

    def release(self) -> None:
        with self._lock:
            if self.inflight > 0:
                self.inflight -= 1

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "index": self.index,
                "port": self.port,
                "healthy": self.healthy,
                "inflight": self.inflight,
                "requests": self.requests,
                "failures": self.failures,
                "graph_version": self.graph_version,
            }


#: Transport-level failures that mean "the replica died mid-request" —
#: retryable on a sibling.  Replica HTTP error responses are not here
#: on purpose: those are answers.
_TRANSPORT_ERRORS = (
    ConnectionError,
    http.client.HTTPException,
    socket.timeout,
    TimeoutError,
    OSError,
)


class FleetRouter:
    """Health-aware round-robin proxy over the fleet's replicas."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        replica_host: str = "127.0.0.1",
        max_inflight_per_replica: int = 8,
        probe_interval_s: float = 0.5,
        probe_timeout_s: float = 1.0,
        proxy_timeout_s: float = 30.0,
        supervisor=None,
        registry: Optional[MetricsRegistry] = None,
        tracer=None,
        max_body_bytes: int = 1 << 20,
    ) -> None:
        self.replica_host = replica_host
        self.max_inflight_per_replica = max_inflight_per_replica
        self.probe_interval_s = probe_interval_s
        self.probe_timeout_s = probe_timeout_s
        self.proxy_timeout_s = proxy_timeout_s
        self.supervisor = supervisor
        self.registry = registry if registry is not None else get_registry()
        self.tracer = tracer if tracer is not None else get_tracer()
        self.max_body_bytes = max_body_bytes
        self._replicas: Dict[int, Replica] = {}
        self._table_lock = threading.Lock()
        self._rr = 0
        # Newest graph version observed anywhere in the fleet (update
        # broadcasts, proxied response headers, readyz probes).  Proxied
        # predicts are stamped with it as a version fence.
        self.graph_version = 0
        self._draining = False
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._started_at = time.time()
        self._thread: Optional[threading.Thread] = None
        self._prober: Optional[threading.Thread] = None
        self._stop_probe = threading.Event()
        # Shared keep-alive connection pool, per replica address.  Each
        # inbound connection gets a fresh handler thread, so a
        # per-thread pool would reconnect on every proxied request; a
        # shared pool keeps replica connections (and the replica-side
        # handler threads serving them) alive across waves.
        self._pools: Dict[Tuple[str, int], List] = {}
        self._pool_lock = threading.Lock()
        self._httpd = FrontDoorServer((host, port), _RouterHandler, self)

    # -- lifecycle ------------------------------------------------------
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def listen_socket(self):
        """The bound listening socket (workers close their forked copy)."""
        return self._httpd.socket

    def start(self) -> "FleetRouter":
        if self._thread is not None:
            raise RuntimeError("router already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-fleet-router",
            daemon=True,
        )
        self._thread.start()
        self._prober = threading.Thread(
            target=self._probe_loop, name="repro-fleet-prober", daemon=True
        )
        self._prober.start()
        _LOG.info("fleet router on %s", self.url)
        return self

    def serve_forever(self) -> None:
        """Blocking serve loop (the CLI path); the prober still runs."""
        self._prober = threading.Thread(
            target=self._probe_loop, name="repro-fleet-prober", daemon=True
        )
        self._prober.start()
        self._httpd.serve_forever()

    def stop(self) -> None:
        self._stop_probe.set()
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5)
            self._thread = None
        self._httpd.server_close()
        with self._pool_lock:
            pools, self._pools = self._pools, {}
        for idle in pools.values():
            for conn in idle:
                try:
                    conn.close()
                except OSError:
                    pass

    # -- drain ----------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self) -> None:
        """Fail ``/readyz`` so balancers stop sending new traffic."""
        self._draining = True

    def wait_idle(self, timeout_s: float) -> bool:
        """Block until no proxied request is in flight (or timeout)."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            with self._inflight_lock:
                if self._inflight == 0:
                    return True
            time.sleep(0.01)
        with self._inflight_lock:
            return self._inflight == 0

    # -- routing table (supervisor callbacks) --------------------------
    def register(self, index: int, port: int) -> None:
        with self._table_lock:
            self._replicas[index] = Replica(index, port, self.replica_host)
        self.registry.gauge("fleet.router.replicas").set(len(self._replicas))
        _LOG.info("router: replica %d registered on port %d", index, port)

    def unregister(self, index: int) -> None:
        with self._table_lock:
            replica = self._replicas.pop(index, None)
        if replica is not None:
            self._drop_pool(replica)
        self.registry.gauge("fleet.router.replicas").set(len(self._replicas))
        _LOG.info("router: replica %d unregistered", index)

    def replicas(self) -> List[Replica]:
        with self._table_lock:
            return list(self._replicas.values())

    def healthy_count(self) -> int:
        return sum(1 for r in self.replicas() if r.healthy)

    # -- health probing -------------------------------------------------
    def _probe_loop(self) -> None:
        while not self._stop_probe.wait(self.probe_interval_s):
            for replica in self.replicas():
                healthy = self._probe(replica)
                if healthy != replica.healthy:
                    _LOG.info(
                        "replica %d -> %s", replica.index,
                        "healthy" if healthy else "unhealthy",
                    )
                replica.healthy = healthy
            self.registry.gauge("fleet.router.healthy").set(
                self.healthy_count()
            )

    def _probe(self, replica: Replica) -> bool:
        conn = http.client.HTTPConnection(
            *replica.address, timeout=self.probe_timeout_s
        )
        try:
            conn.request("GET", "/readyz")
            response = conn.getresponse()
            payload = response.read()
            if response.status != 200:
                return False
            body = _safe_json(payload)
            engine = body.get("engine") if isinstance(body, dict) else None
            if isinstance(engine, dict):
                version = engine.get("graph_version")
                if isinstance(version, int):
                    replica.graph_version = version
                    self.note_graph_version(version)
            return True
        except _TRANSPORT_ERRORS:
            return False
        finally:
            conn.close()

    # -- graph-version tracking -----------------------------------------
    def note_graph_version(self, version) -> None:
        """Advance the fleet-max graph version (monotonic, race-benign)."""
        if isinstance(version, int) and version > self.graph_version:
            self.graph_version = version

    def _note_version_header(self, headers: dict) -> None:
        for key, value in headers.items():
            if key.lower() == "x-graph-version":
                try:
                    self.note_graph_version(int(value))
                except (TypeError, ValueError):
                    pass
                return

    # -- proxying -------------------------------------------------------
    def _pick(self, exclude: Optional[int] = None) -> Optional[Replica]:
        """Next healthy replica with capacity, round-robin; None if none.

        Distinguishes "no healthy replica" (returns None, 503) from
        "all healthy replicas saturated" (raises Overloaded, 429).
        """
        replicas = self.replicas()
        if not replicas:
            return None
        saw_healthy = False
        with self._table_lock:
            start = self._rr
            self._rr += 1
        for offset in range(len(replicas)):
            replica = replicas[(start + offset) % len(replicas)]
            if replica.index == exclude or not replica.healthy:
                continue
            saw_healthy = True
            if replica.try_acquire(self.max_inflight_per_replica):
                return replica
        if saw_healthy:
            raise Overloaded(
                "every healthy replica is at its in-flight cap "
                f"({self.max_inflight_per_replica}); retry with backoff",
                detail={"per_replica_cap": self.max_inflight_per_replica},
            )
        return None

    _POOL_MAX_IDLE = 32  # idle keep-alive connections kept per replica

    def _connection(self, replica: Replica) -> http.client.HTTPConnection:
        """Check a keep-alive connection to ``replica`` out of the pool."""
        with self._pool_lock:
            idle = self._pools.get(replica.address)
            if idle:
                return idle.pop()
        conn = http.client.HTTPConnection(
            *replica.address, timeout=self.proxy_timeout_s
        )
        conn.connect()
        conn.sock.setsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
        )
        return conn

    def _return_connection(self, replica: Replica, conn) -> None:
        with self._pool_lock:
            idle = self._pools.setdefault(replica.address, [])
            if len(idle) < self._POOL_MAX_IDLE:
                idle.append(conn)
                return
        conn.close()

    def _drop_pool(self, replica: Replica) -> None:
        """Close every idle connection to a replica that went away."""
        with self._pool_lock:
            idle = self._pools.pop(replica.address, [])
        for conn in idle:
            try:
                conn.close()
            except OSError:
                pass

    def _forward(
        self, replica: Replica, method: str, path: str,
        body: Optional[bytes], headers: dict,
    ) -> Tuple[int, bytes, dict]:
        conn = self._connection(replica)
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            payload = response.read()
        except _TRANSPORT_ERRORS:
            conn.close()
            self._drop_pool(replica)
            raise
        if response.will_close:
            conn.close()
        else:
            self._return_connection(replica, conn)
        return response.status, payload, dict(response.getheaders())

    def route_predict(
        self, raw: bytes, inbound_headers
    ) -> Tuple[int, bytes, dict]:
        """Proxy one ``/predict``; retry once on a mid-request death."""
        registry = self.registry
        registry.counter("fleet.router.requests").inc()
        idempotent = (
            inbound_headers.get("X-Idempotent", "true").lower() != "false"
        )
        span = self.tracer.trace(
            "serve.route", trace_id=inbound_headers.get("X-Trace-Id")
        )
        with self._inflight_lock:
            self._inflight += 1
        try:
            with span:
                headers = {"Content-Type": "application/json"}
                if span.trace_id:
                    headers["X-Trace-Id"] = span.trace_id
                # Version fence: stamp the newest graph version this
                # router has observed fleet-wide (or the caller's own,
                # whichever is newer) so a lagging replica answers 409
                # instead of logits from an older graph.
                fence = self.graph_version
                inbound_fence = inbound_headers.get("X-Graph-Version")
                if inbound_fence is not None:
                    try:
                        fence = max(fence, int(inbound_fence))
                    except ValueError:
                        pass
                if fence > 0:
                    headers["X-Graph-Version"] = str(fence)
                attempted: Optional[int] = None
                for attempt in range(2):
                    replica = self._pick(exclude=attempted)
                    if replica is None:
                        if attempt == 0:
                            raise ServeError(
                                "no healthy replica available",
                                code="no_replicas", status=503,
                                detail={"replicas": len(self.replicas())},
                            )
                        # First pick died and no sibling exists: surface
                        # the death as a retryable 503.
                        raise ServeError(
                            "replica died mid-request and no healthy "
                            "sibling is available",
                            code="replica_lost", status=503,
                        )
                    self.tracer.annotate(replica=replica.index)
                    try:
                        if attempt == 0:
                            status, payload, resp_headers = self._forward(
                                replica, "POST", "/predict", raw, headers
                            )
                        else:
                            registry.counter(
                                "fleet.router.retried_sibling"
                            ).inc()
                            with self.tracer.span(
                                "serve.retry_sibling",
                                replica=replica.index,
                            ):
                                status, payload, resp_headers = (
                                    self._forward(
                                        replica, "POST", "/predict",
                                        raw, headers,
                                    )
                                )
                        self._note_version_header(resp_headers)
                        if (
                            attempt == 0
                            and status == 409
                            and _is_version_conflict(payload)
                        ):
                            # The replica is behind the fence — not dead,
                            # just lagging.  One-shot retry against an
                            # up-to-date sibling; a second 409 passes
                            # through (the client backs off and retries).
                            registry.counter(
                                "fleet.router.version_retries"
                            ).inc()
                            self.tracer.annotate(
                                version_conflict_replica=replica.index
                            )
                            attempted = replica.index
                            continue
                        return status, payload, resp_headers
                    except _TRANSPORT_ERRORS as exc:
                        replica.healthy = False
                        with replica._lock:
                            replica.failures += 1
                        registry.counter(
                            "fleet.router.replica_errors"
                        ).inc()
                        self.tracer.annotate(
                            replica_error=f"{type(exc).__name__}: {exc}"
                        )
                        _LOG.warning(
                            "replica %d failed mid-request: %r",
                            replica.index, exc,
                        )
                        attempted = replica.index
                        if not idempotent:
                            raise ServeError(
                                "replica died mid-request; request was "
                                "marked non-idempotent so it was not "
                                "retried",
                                code="replica_lost", status=503,
                            ) from exc
                    finally:
                        replica.release()
                raise ServeError(
                    "replica died mid-request and its sibling did too",
                    code="replica_lost", status=503,
                )
        finally:
            with self._inflight_lock:
                self._inflight -= 1

    # -- dynamic graph updates ------------------------------------------
    def handle_graph_update(self, raw: bytes) -> tuple:
        """Broadcast one mutation batch to every healthy replica.

        Each replica applies the batch against its own WAL; the client's
        ``update_id`` makes the broadcast idempotent per replica, so a
        replica that already holds the update (e.g. after a crash-replay)
        answers a duplicate no-op rather than double-applying.  The
        fleet-max ``graph_version`` advances as soon as *any* replica
        commits — lagging replicas are fenced on ``/predict`` until they
        catch up (or are restarted and recover via WAL replay).
        """
        registry = self.registry
        registry.counter("fleet.router.graph_updates").inc()
        results = self.broadcast("POST", "/graph/update", raw)
        if not results:
            raise ServeError(
                "no replica available to apply the update",
                code="no_replicas", status=503,
            )
        statuses = [r["status"] for r in results if "status" in r]
        for entry in results:
            body = entry.get("body")
            if entry.get("status") == 200 and isinstance(body, dict):
                self.note_graph_version(body.get("graph_version"))
        ok = bool(statuses) and all(s == 200 for s in statuses)
        if ok:
            status = 200
        elif statuses and len(set(statuses)) == 1:
            # Every replica gave the same deliberate answer (validation
            # 4xx, state conflict 409): pass that verdict through.
            status = statuses[0]
        else:
            status = 502
        return status, {
            "applied": ok,
            "graph_version": self.graph_version,
            "replicas": results,
        }

    # -- broadcast (reload) --------------------------------------------
    def broadcast(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> List[dict]:
        """Send one request to every healthy replica; collect results."""
        results = []
        headers = {"Content-Type": "application/json"} if body else {}
        for replica in self.replicas():
            if not replica.healthy:
                results.append(
                    {"replica": replica.index, "skipped": "unhealthy"}
                )
                continue
            try:
                status, payload, _ = self._forward(
                    replica, method, path, body, headers
                )
                results.append({
                    "replica": replica.index,
                    "status": status,
                    "body": _safe_json(payload),
                })
            except _TRANSPORT_ERRORS as exc:
                replica.healthy = False
                results.append({
                    "replica": replica.index,
                    "error": f"{type(exc).__name__}: {exc}",
                })
        return results

    # -- endpoints ------------------------------------------------------
    def handle_healthz(self) -> tuple:
        return 200, {
            "status": "ok",
            "role": "router",
            "uptime_s": round(time.time() - self._started_at, 3),
            "replicas": len(self.replicas()),
            "healthy": self.healthy_count(),
        }

    def _replica_snapshots(self) -> List[dict]:
        """Per-replica snapshots with graph-version lag vs the fleet max."""
        snapshots = []
        for replica in self.replicas():
            snap = replica.snapshot()
            snap["version_lag"] = max(
                0, self.graph_version - snap["graph_version"]
            )
            snapshots.append(snap)
        return snapshots

    def handle_readyz(self) -> tuple:
        if self._draining:
            return 503, {"ready": False, "reason": "draining"}
        healthy = self.healthy_count()
        if healthy == 0:
            return 503, {
                "ready": False,
                "reason": "no healthy replica",
                "graph_version": self.graph_version,
                "replicas": self._replica_snapshots(),
            }
        return 200, {
            "ready": True,
            "healthy": healthy,
            "graph_version": self.graph_version,
            "replicas": self._replica_snapshots(),
        }

    #: Replica counters summed fleet-wide in the /metrics aggregate.
    _SUMMED_COUNTERS = (
        "serve.requests", "serve.ok", "serve.degraded", "serve.shed",
        "serve.predict.full", "serve.predict.degraded",
        "serve.predict.failures", "serve.fastpath.hits",
        "serve.fastpath.misses", "serve.internal_errors",
        "serve.graph.updates", "serve.graph.duplicates",
        "serve.fence.conflicts",
    )

    def handle_metrics(self) -> tuple:
        replicas = {}
        totals: Dict[str, float] = {}
        for replica in self.replicas():
            if not replica.healthy:
                replicas[str(replica.index)] = {
                    "routing": replica.snapshot()
                }
                continue
            try:
                status, payload, _ = self._forward(
                    replica, "GET", "/metrics", None, {}
                )
                body = _safe_json(payload)
            except _TRANSPORT_ERRORS as exc:
                body = {"error": f"{type(exc).__name__}: {exc}"}
            replicas[str(replica.index)] = {
                "routing": replica.snapshot(),
                "metrics": body,
            }
            # Replica /metrics carries a flat MetricsRegistry.snapshot():
            # {name: {"type": "counter", "value": N}, ...}.
            instruments = (
                body.get("metrics", {}) if isinstance(body, dict) else {}
            )
            for name in self._SUMMED_COUNTERS:
                entry = instruments.get(name)
                if isinstance(entry, dict) and "value" in entry:
                    totals[name] = (
                        totals.get(name, 0) + (entry["value"] or 0)
                    )
        payload = {
            "role": "router",
            "metrics": self.registry.snapshot(),
            "inflight": self._inflight,
            "draining": self._draining,
            "fleet": {
                "totals": totals,
                "supervisor": (
                    self.supervisor.snapshot()
                    if self.supervisor is not None else None
                ),
            },
            "replicas": replicas,
        }
        return 200, payload

    def handle_fleet(self) -> tuple:
        """Compact topology view (``GET /fleet``)."""
        payload = {
            "router": self.url,
            "draining": self._draining,
            "replicas": [r.snapshot() for r in self.replicas()],
            "supervisor": (
                self.supervisor.snapshot()
                if self.supervisor is not None else None
            ),
        }
        return 200, payload

    def handle_reload(self) -> tuple:
        results = self.broadcast("POST", "/reload")
        ok = all(r.get("status") == 200 for r in results if "status" in r)
        return (200 if ok and results else 503), {
            "reloaded": ok, "replicas": results,
        }


def _safe_json(payload: bytes):
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return {"raw": repr(payload[:200])}


def _is_version_conflict(payload: bytes) -> bool:
    """True when a replica's 409 body is a ``graph_version_conflict``."""
    body = _safe_json(payload)
    if not isinstance(body, dict):
        return False
    error = body.get("error")
    return (
        isinstance(error, dict)
        and error.get("code") == "graph_version_conflict"
    )


#: Replica response headers a proxied ``/predict`` passes through.
_PASSTHROUGH_HEADERS = ("content-type", "x-trace-id", "x-graph-version")


class _RouterHandler(FrontDoorHandler):
    """Routes requests to the owning :class:`FleetRouter`."""

    server_version = "repro-fleet-router/1.0"
    log = _LOG
    internal_errors_counter = "fleet.router.internal_errors"

    def _render(self, result) -> tuple:
        if len(result) > 2:  # (status, body, headers) of a proxied /predict
            status, body, headers = result
            return status, body, [
                (key, value) for key, value in headers.items()
                if key.lower() in _PASSTHROUGH_HEADERS
            ]
        status, payload = result
        return status, json.dumps(payload).encode("utf-8"), JSON_HEADERS

    def do_GET(self) -> None:  # noqa: N802 (stdlib name)
        router = self.server.owner
        path = self.path.split("?", 1)[0]
        if path == "/healthz":
            self._dispatch(router.handle_healthz)
        elif path == "/readyz":
            self._dispatch(router.handle_readyz)
        elif path == "/metrics":
            self._dispatch(router.handle_metrics)
        elif path == "/fleet":
            self._dispatch(router.handle_fleet)
        else:
            self._dispatch(lambda: (404, _not_found(self.path)))

    def do_POST(self) -> None:  # noqa: N802 (stdlib name)
        router = self.server.owner
        path = self.path.split("?", 1)[0]
        if path == "/reload":
            self._dispatch(router.handle_reload)
        elif path == "/graph/update":
            self._dispatch(lambda: router.handle_graph_update(
                self._read_body("/graph/update", router.max_body_bytes)
            ))
        elif path == "/predict":
            self._dispatch(lambda: router.route_predict(
                self._read_body("/predict", router.max_body_bytes),
                self.headers,
            ))
        else:
            self._dispatch(lambda: (404, _not_found(self.path)))


def _not_found(path: str) -> dict:
    return {
        "error": {
            "code": "not_found",
            "message": f"unknown path {path!r}",
            "detail": {
                "endpoints": [
                    "/predict", "/graph/update", "/reload", "/healthz",
                    "/readyz", "/metrics", "/fleet",
                ]
            },
        }
    }
