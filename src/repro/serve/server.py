"""The fault-tolerant model server (stdlib ``http.server``, threads).

:class:`ModelServer` binds a threading HTTP server
(:mod:`repro.serve.frontdoor`, shared with the fleet router) with these
JSON endpoints:

- ``POST /predict`` — validated inference through the serving fast
  path and the degradation ladder (see :mod:`repro.serve.engine`);
  responses carry ``"cached": true`` when answered from the
  version-keyed logit store without a forward;
- ``POST /graph/update`` — durable dynamic-graph mutation: validated
  here (stable 4xx codes, malformed batches never reach the WAL), then
  applied transactionally by :meth:`InferenceEngine.apply_update`
  (fsync-WAL-first, incremental renormalization and propagation
  maintenance, row-level logit invalidation).  Responses — and every
  ``/predict`` response — carry the ``X-Graph-Version`` header; an
  inbound ``X-Graph-Version`` on ``/predict`` acts as a version fence
  (409 ``graph_version_conflict`` when this replica is behind);
- ``POST /reload``  — hot-reload the newest valid checkpoint from the
  configured checkpoint source and atomically swap it into the engine
  (the old version's memoized logits are invalidated before the new
  weights serve — see :meth:`InferenceEngine.swap_model`);
- ``GET /healthz``  — liveness (200 whenever the process responds);
- ``GET /readyz``   — readiness (503 until a usable engine exists, and
  when the breaker is open with no fallback to serve from);
- ``GET /metrics``  — the PR-1 :class:`~repro.obs.MetricsRegistry`
  snapshot plus breaker/shedder/cache and fast-path state;
  ``?format=prometheus`` returns the text exposition format instead
  (:mod:`repro.obs.prometheus`);
- ``GET /traces``   — recent kept request traces from the tracer's
  ring buffer, slowest first (``?n=`` bounds the count).

Tracing: when the server's :class:`~repro.obs.Tracer` is enabled,
``/predict`` and ``/reload`` each run under a root span whose id is
returned in the ``X-Trace-Id`` response header; an inbound
``X-Trace-Id`` header continues the caller's trace (and forces the
sample).  With the tracer disabled — the default — the handler path is
unchanged except for no-op singleton checks.

Every endpoint answers through the front door's ``_dispatch``; an
unexpected exception becomes a structured 500 body (code ``internal``)
rather than the default ``http.server`` HTML traceback page — the
serving contract is that clients only ever parse JSON (or, for the
Prometheus view, explicitly ask for text).

Request threads are daemonic and admission is bounded by the
:class:`~repro.serve.guard.LoadShedder`, so a traffic spike sheds with
429s instead of stacking unbounded worker threads.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.parse
from typing import Optional, Union

from repro.obs import (
    PROMETHEUS_CONTENT_TYPE,
    MetricsRegistry,
    get_logger,
    get_registry,
    get_tracer,
    render_prometheus,
)
from repro.perf import get_cache
from repro.resilience.checkpoint import CheckpointManager
from repro.serve.engine import InferenceEngine, PathLike, load_checkpoint_model
from repro.serve.errors import (
    ModelUnavailable,
    Overloaded,
    ValidationError,
    VersionConflict,
)
from repro.serve.frontdoor import FrontDoorHandler, FrontDoorServer
from repro.serve.guard import Deadline, LoadShedder
from repro.serve.validate import (
    DEFAULT_MAX_BODY_BYTES,
    DEFAULT_MAX_NODES,
    parse_predict_request,
    parse_update_request,
)

_LOG = get_logger("serve")

#: Header carrying the graph version: stamped on every response from an
#: engine-backed server, and honored on inbound ``POST /predict`` as a
#: version fence — a replica behind the required version answers 409
#: (``graph_version_conflict``) instead of serving stale logits.
GRAPH_VERSION_HEADER = "X-Graph-Version"


class ModelServer:
    """Thread-based inference server wrapping one :class:`InferenceEngine`.

    Parameters
    ----------
    engine:
        The inference engine, or ``None`` to start *unready* (liveness
        up, readiness and predict 503) — the state a server is in when
        startup found no valid checkpoint.
    host, port:
        Bind address; ``port=0`` picks a free port (tests).
    registry:
        Metrics registry; defaults to the process-wide one.
    max_inflight, max_body_bytes, max_nodes, default_deadline_ms:
        Robustness knobs (see ``docs/serving.md``).
    checkpoint_source:
        Directory (or :class:`CheckpointManager`) that ``POST /reload``
        pulls the newest valid checkpoint from; ``None`` disables the
        endpoint (it answers 503).
    tracer:
        The request tracer (:class:`repro.obs.Tracer`); defaults to the
        process-wide one, which is disabled until configured — so a
        server built without explicit tracing pays only no-op checks.
    """

    def __init__(
        self,
        engine: Optional[InferenceEngine],
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        registry: Optional[MetricsRegistry] = None,
        max_inflight: int = 8,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        max_nodes: int = DEFAULT_MAX_NODES,
        default_deadline_ms: Optional[float] = None,
        checkpoint_source: Optional[Union[PathLike, CheckpointManager]] = None,
        tracer=None,
    ) -> None:
        self.engine = engine
        self.checkpoint_source = checkpoint_source
        self._reload_lock = threading.Lock()
        self.registry = registry if registry is not None else get_registry()
        self.tracer = tracer if tracer is not None else get_tracer()
        self.shedder = LoadShedder(max_inflight)
        self.max_body_bytes = max_body_bytes
        self.max_nodes = max_nodes
        self.default_deadline_ms = default_deadline_ms
        self._started_at = time.time()
        self._draining = False
        self._thread: Optional[threading.Thread] = None
        self._httpd = FrontDoorServer((host, port), _Handler, self)

    # -- lifecycle -----------------------------------------------------
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ModelServer":
        """Serve in a daemon thread; returns self (the port is bound)."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        _LOG.info("serving on %s", self.url)
        return self

    def serve_forever(self) -> None:
        """Blocking serve loop (the CLI path)."""
        self._httpd.serve_forever()

    def stop(self) -> None:
        """Stop serving and release the port (safe in any lifecycle state).

        ``HTTPServer.shutdown`` blocks until an active ``serve_forever``
        loop notices it, so it is only issued when the background thread
        is running; a never-started (or CLI/dry-run) server just closes
        its socket.
        """
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "ModelServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    # -- graceful drain ------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self) -> None:
        """First step of a graceful shutdown: fail ``/readyz``.

        Load balancers (and the fleet router's health prober) stop
        sending new traffic; requests already in flight keep running.
        ``/predict`` itself stays up for stragglers that were routed
        before the flip — they finish normally rather than erroring.
        """
        self._draining = True
        _LOG.info("drain started: /readyz now 503")

    def drain(self, timeout_s: float = 10.0) -> bool:
        """Second step: wait until no request is in flight (or timeout).

        Returns True when the server drained cleanly; False means
        ``timeout_s`` elapsed with requests still running (the caller
        decides whether to stop anyway).
        """
        if not self._draining:
            self.begin_drain()
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.shedder.inflight == 0:
                return True
            time.sleep(0.01)
        drained = self.shedder.inflight == 0
        if not drained:
            _LOG.warning(
                "drain timed out after %.1fs with %d requests in flight",
                timeout_s, self.shedder.inflight,
            )
        return drained

    # -- endpoint logic (handler-thread context) -----------------------
    def handle_predict(
        self, raw: bytes, required_version: Optional[int] = None
    ) -> tuple:
        registry = self.registry
        registry.counter("serve.requests").inc()
        if self.engine is None:
            raise ModelUnavailable(
                "no model loaded (startup found no usable checkpoint)"
            )
        if (
            required_version is not None
            and self.engine.graph_version < required_version
        ):
            # Version fence: this replica has not yet applied the graph
            # update the caller has already observed elsewhere.  Answer a
            # retryable 409 rather than logits from the older graph.
            registry.counter("serve.fence.conflicts").inc()
            raise VersionConflict(
                f"replica graph version {self.engine.graph_version} is "
                f"behind required version {required_version}",
                have=self.engine.graph_version,
                want=required_version,
            )
        if not self.shedder.try_acquire():
            registry.counter("serve.shed").inc()
            self.tracer.annotate(shed=True, inflight=self.shedder.inflight)
            raise Overloaded(
                f"server at capacity ({self.shedder.max_inflight} requests "
                "in flight); retry with backoff",
                detail={"max_inflight": self.shedder.max_inflight},
            )
        try:
            registry.gauge("serve.inflight").set(self.shedder.inflight)
            with registry.timer("serve.latency_s") as timer:
                with self.tracer.span("serve.validate") as vspan:
                    request = parse_predict_request(
                        raw,
                        num_nodes=self.engine.graph.num_nodes,
                        num_features=self.engine.graph.num_features,
                        max_body_bytes=self.max_body_bytes,
                        max_nodes=self.max_nodes,
                    )
                    if vspan.is_recording:
                        vspan.update(nodes=len(request.nodes), bytes=len(raw))
                deadline_ms = (
                    request.deadline_ms
                    if request.deadline_ms is not None
                    else self.default_deadline_ms
                )
                deadline = (
                    Deadline.from_ms(deadline_ms) if deadline_ms else None
                )
                result = self.engine.predict(request, deadline)
            result["latency_ms"] = round(1000 * timer.last, 3)
            if result.get("degraded"):
                registry.counter("serve.degraded").inc()
            else:
                registry.counter("serve.ok").inc()
            return 200, result
        finally:
            self.shedder.release()
            # Mirror the release too, so the gauge reads 0 once the
            # server is drained rather than freezing at the high-water
            # mark of the last admission.
            registry.gauge("serve.inflight").set(self.shedder.inflight)
            registry.gauge("serve.breaker.state").set(
                self.engine.breaker.state_code
            )

    def handle_graph_update(self, raw: bytes) -> tuple:
        """``POST /graph/update`` — durable dynamic-graph mutation.

        Payload-shape validation happens here (stable 4xx codes, nothing
        malformed ever reaches the WAL); state-dependent conflicts
        (removing a missing edge, duplicate ``update_id``) are decided by
        the engine against live state.  Applies serialize on the
        engine's update lock, so concurrent predicts keep flowing while
        a mutation is in progress.
        """
        registry = self.registry
        registry.counter("serve.graph.requests").inc()
        if self.engine is None:
            raise ModelUnavailable(
                "no model loaded (startup found no usable checkpoint)"
            )
        with registry.timer("serve.graph.latency_s") as timer:
            with self.tracer.span("serve.validate") as vspan:
                batch = parse_update_request(
                    raw,
                    num_nodes=self.engine.graph.num_nodes,
                    num_features=self.engine.graph.num_features,
                    max_body_bytes=self.max_body_bytes,
                )
                if vspan.is_recording:
                    vspan.update(ops=batch.num_ops, bytes=len(raw))
            result = self.engine.apply_update(batch)
        result["latency_ms"] = round(1000 * timer.last, 3)
        return 200, result

    def handle_healthz(self) -> tuple:
        return 200, {
            "status": "ok",
            "uptime_s": round(time.time() - self._started_at, 3),
        }

    def handle_readyz(self) -> tuple:
        if self._draining:
            return 503, {
                "ready": False,
                "reason": "draining",
                "inflight": self.shedder.inflight,
            }
        if self.engine is None:
            return 503, {
                "ready": False,
                "reason": "no model loaded (no usable checkpoint at startup)",
            }
        breaker = self.engine.breaker.snapshot()
        if breaker["state"] == "open" and self.engine.fallback is None:
            return 503, {
                "ready": False,
                "reason": "circuit breaker open and no degraded fallback",
                "breaker": breaker,
            }
        return 200, {
            "ready": True,
            "degraded_only": breaker["state"] == "open",
            "engine": self.engine.info(),
        }

    def handle_metrics(self, fmt: str = "json") -> tuple:
        if fmt == "prometheus":
            body = render_prometheus(self.registry.snapshot())
            return 200, body, PROMETHEUS_CONTENT_TYPE
        if fmt != "json":
            raise ValidationError(
                f"unknown metrics format {fmt!r} (expected json or prometheus)",
                code="bad_format",
            )
        payload = {
            "metrics": self.registry.snapshot(),
            "inflight": self.shedder.inflight,
            "draining": self._draining,
            "shed_count": self.shedder.shed_count,
            "propcache": get_cache().info(),
            "tracing": self.tracer.info(),
        }
        if self.engine is not None:
            payload["breaker"] = self.engine.breaker.snapshot()
            payload["fastpath"] = self.engine.info()["fastpath"]
        return 200, payload

    def handle_traces(self, n: int = 20, order: str = "slow") -> tuple:
        """Kept traces from the tracer's ring buffer (``GET /traces``)."""
        tracer = self.tracer
        if not tracer.enabled or tracer.sink is None:
            return 200, {"enabled": False, "traces": []}
        n = max(0, n)
        traces = tracer.sink.recent(n) if order == "recent" else tracer.sink.slow(n)
        return 200, {
            "enabled": True,
            "tracer": tracer.info(),
            "traces": traces,
        }

    def handle_reload(self) -> tuple:
        return 200, self.reload_checkpoint()

    def reload_checkpoint(
        self, source: Optional[Union[PathLike, CheckpointManager]] = None
    ) -> dict:
        """Load the newest valid checkpoint and swap it into the engine.

        The swap is atomic with respect to in-flight requests: version
        keys pin memoized logits to the producing weights, and
        :meth:`InferenceEngine.swap_model` invalidates the outgoing
        version's store entries before publishing the new model — so a
        request racing the reload gets either consistent old-version or
        consistent new-version logits, never a stale mix.
        """
        source = source if source is not None else self.checkpoint_source
        if source is None:
            raise ModelUnavailable(
                "reload is not configured (server started without a "
                "checkpoint source)"
            )
        if self.engine is None:
            raise ModelUnavailable(
                "no engine to reload into (server started without a model)"
            )
        manager = (
            source
            if isinstance(source, CheckpointManager)
            else CheckpointManager(source)
        )
        with self._reload_lock:
            loaded = load_checkpoint_model(manager, self.engine.graph)
            if loaded is None:
                raise ModelUnavailable(
                    f"no usable checkpoint under {manager.directory}"
                )
            model, _, ckpt = loaded
            version = self.engine.swap_model(model)
        _LOG.info(
            "reloaded checkpoint %s (epoch %d)", ckpt.path.name, ckpt.step
        )
        return {
            "reloaded": True,
            "checkpoint": ckpt.path.name,
            "epoch": ckpt.step,
            "version": version[:12],
        }


class _Handler(FrontDoorHandler):
    """Routes requests to the owning :class:`ModelServer`."""

    server_version = "repro-serve/1.0"

    #: Trace id of the request being handled (set per request before the
    #: response is written; surfaces as the X-Trace-Id response header).
    _trace_id: Optional[str] = None
    #: Graph version stamped on the response (X-Graph-Version) so routers
    #: and clients can track the newest version they have observed.
    _graph_version: Optional[int] = None

    def _render(self, result) -> tuple:
        status, payload = result[0], result[1]
        if len(result) > 2:  # (status, text, content_type) — /metrics
            body, content_type = payload.encode("utf-8"), result[2]
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        headers = [("Content-Type", content_type)]
        if self._trace_id:
            headers.append(("X-Trace-Id", self._trace_id))
        if self._graph_version is not None:
            headers.append((GRAPH_VERSION_HEADER, str(self._graph_version)))
        return status, body, headers

    def _query(self) -> dict:
        """First-value-wins query parameters of the request path."""
        query = urllib.parse.urlsplit(self.path).query
        return {
            key: values[0]
            for key, values in urllib.parse.parse_qs(query).items()
            if values
        }

    def do_GET(self) -> None:  # noqa: N802 (stdlib name)
        # Keep-alive reuses this handler instance across requests; clear
        # the previous request's trace id so it can't leak into headers.
        self._trace_id = None
        self._graph_version = None
        server = self.server.owner
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            fmt = self._query().get("format", "json")
            self._dispatch(lambda: server.handle_metrics(fmt))
        elif path == "/traces":
            params = self._query()
            try:
                n = int(params.get("n", "20"))
            except ValueError:
                n = 20
            order = params.get("order", "slow")
            self._dispatch(lambda: server.handle_traces(n, order))
        elif path == "/healthz":
            self._dispatch(server.handle_healthz)
        elif path == "/readyz":
            self._dispatch(server.handle_readyz)
        else:
            self._dispatch(lambda: _not_found(self.path))

    def _required_graph_version(self) -> Optional[int]:
        """The inbound X-Graph-Version fence, or None when absent."""
        header = self.headers.get(GRAPH_VERSION_HEADER)
        if header is None:
            return None
        try:
            return int(header)
        except ValueError:
            raise ValidationError(
                f"{GRAPH_VERSION_HEADER} must be an integer, got {header!r}",
                code="invalid_graph_version",
            ) from None

    def _stamp_graph_version(self) -> None:
        engine = self.server.owner.engine
        if engine is not None:
            self._graph_version = engine.graph_version

    def do_POST(self) -> None:  # noqa: N802 (stdlib name)
        self._trace_id = None
        self._graph_version = None
        server = self.server.owner
        path = self.path.split("?", 1)[0]
        if path == "/reload":

            def reload():
                span = server.tracer.trace(
                    "serve.reload", trace_id=self.headers.get("X-Trace-Id")
                )
                self._trace_id = span.trace_id
                with span:
                    return server.handle_reload()

            self._dispatch(reload)
            return
        if path == "/graph/update":

            def graph_update():
                raw = self._read_body("/graph/update", server.max_body_bytes)
                span = server.tracer.trace(
                    "serve.graph_update",
                    trace_id=self.headers.get("X-Trace-Id"),
                )
                self._trace_id = span.trace_id
                try:
                    with span:
                        return server.handle_graph_update(raw)
                finally:
                    # The version the apply left behind (advanced on
                    # success, unchanged on conflict/duplicate).
                    self._stamp_graph_version()

            self._dispatch(graph_update)
            return
        if path != "/predict":
            self._dispatch(lambda: _not_found(self.path))
            return

        def predict():
            raw = self._read_body("/predict", server.max_body_bytes)
            # Root span for the request: an inbound X-Trace-Id continues
            # the caller's trace (and forces the sample); the id is set
            # on the handler *before* the body runs so even error
            # responses carry the X-Trace-Id header.
            span = server.tracer.trace(
                "serve.predict", trace_id=self.headers.get("X-Trace-Id")
            )
            self._trace_id = span.trace_id
            try:
                with span:
                    return server.handle_predict(
                        raw, required_version=self._required_graph_version()
                    )
            finally:
                self._stamp_graph_version()

        self._dispatch(predict)


def _not_found(path: str) -> tuple:
    return 404, {
        "error": {
            "code": "not_found",
            "message": f"unknown path {path!r}",
            "detail": {
                "endpoints": [
                    "/predict", "/graph/update", "/reload", "/healthz",
                    "/readyz", "/metrics", "/traces",
                ]
            },
        }
    }
