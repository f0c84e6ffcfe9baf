"""Wire-level tests of the model server and the fleet router.

What a client sees on the socket, checked with raw sockets rather than
``http.client`` (which would hide how a response was split):

- every response leaves in exactly one write, and its bytes are the
  ones these servers have always sent (apart from ``Date``, and the
  ``latency_ms`` value the server measures);
- a ``Content-Length`` that is not a decimal byte count is answered 400
  ``invalid_content_length`` and the connection is closed, instead of a
  500 (``abc``) or a handler thread blocked until the client hangs up
  (``-1``).
"""

import contextlib
import json
import re
import socket
import sys

import pytest

from repro.datasets import load_dataset
from repro.models import build_model
from repro.obs import MetricsRegistry
from repro.serve import FleetRouter, InferenceEngine, ModelServer, ShallowFallback

pytestmark = pytest.mark.serve

_PYTHON = sys.version.split()[0]
_DATE = re.compile(rb"\r\nDate: [^\r\n]*")
_LATENCY = re.compile(rb'"latency_ms": [0-9.e-]+')
_LENGTH = re.compile(rb"\r\nContent-Length: ([0-9]+)")
PREDICT = b'{"nodes": [0, 3]}'


def _post(path, body=b"", length=None):
    lines = [b"POST %s HTTP/1.1" % path.encode(), b"Host: 127.0.0.1"]
    if length is not None:
        lines.append(b"Content-Length: " + str(length).encode())
    return b"\r\n".join(lines) + b"\r\n\r\n" + body


def _get(path):
    return b"GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n" % path.encode()


def _exchange(port, raw, wait_close=0.0, timeout=5.0):
    """Send ``raw`` on a fresh connection and read one response.

    Returns ``(response, closed)``; ``closed`` says whether the server
    closed the connection within ``wait_close`` seconds after it.
    """
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(raw)
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = sock.recv(65536)
            assert chunk, f"connection closed before a response: {data!r}"
            data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        length = int(_LENGTH.search(head).group(1))
        while len(body) < length:
            chunk = sock.recv(65536)
            assert chunk, "connection closed mid-body"
            body += chunk
        assert len(body) == length
        closed = False
        if wait_close:
            sock.settimeout(wait_close)
            try:
                closed = sock.recv(1) == b""
            except socket.timeout:
                pass
        return head + b"\r\n\r\n" + body, closed


def _normalize(response):
    """The response with ``Date`` and ``latency_ms`` values masked."""
    head, _, body = response.partition(b"\r\n\r\n")
    body = _LATENCY.sub(b'"latency_ms": 0', body)
    head = _DATE.sub(b"\r\nDate: <date>", head)
    head = _LENGTH.sub(b"\r\nContent-Length: %d" % len(body), head)
    return head + b"\r\n\r\n" + body


def _response(server, status, headers, body):
    head = [
        f"HTTP/1.1 {status}", f"Server: {server} Python/{_PYTHON}",
        "Date: <date>", *headers, f"Content-Length: {len(body)}",
    ]
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


_JSON = "Content-Type: application/json"
_PREDICTED = (
    b'{"nodes": [0, 3], "classes": [1, 4], "degraded": false, '
    b'"cached": false, "model": "gcn", "latency_ms": 0}'
)
_MISSING_LENGTH = (
    b'{"error": {"code": "missing_content_length", "message": '
    b'"POST /predict requires a Content-Length header"}}'
)
_TOO_LARGE = (
    b'{"error": {"code": "payload_too_large", "message": "request body is '
    b'10000000 bytes, limit is 1048576", "detail": {"bytes": 10000000, '
    b'"limit": 1048576}}}'
)
_ENDPOINTS = '["/predict", "/graph/update", "/reload", "/healthz", "/readyz", '


def _not_found(last):
    return (
        b'{"error": {"code": "not_found", "message": "unknown path '
        b"'/nope'\", \"detail\": {\"endpoints\": "
        + (_ENDPOINTS + f'"/metrics", "{last}"]' + "}}}").encode()
    )


# (request, expected normalized response) per case, in the order sent.
# The expected bytes are what the servers sent before they answered in
# one write.  One deliberate difference: the router's 413 used to carry
# no ``detail``; both servers now share one body reader and its detail.
SERVER = "repro-serve/1.0"
SERVER_CASES = {
    "prometheus": (
        _get("/metrics?format=prometheus"),
        _response(SERVER, "200 OK",
                  ["Content-Type: text/plain; version=0.0.4; charset=utf-8"],
                  b"# TYPE repro_test_seeded_total counter\n"
                  b"repro_test_seeded_total 3\n"),
    ),
    "predict": (
        _post("/predict", PREDICT, len(PREDICT)),
        _response(SERVER, "200 OK", [_JSON, "X-Graph-Version: 0"], _PREDICTED),
    ),
    "not_found": (
        _get("/nope"),
        _response(SERVER, "404 Not Found", [_JSON], _not_found("/traces")),
    ),
    "missing_length": (
        _post("/predict"),
        _response(SERVER, "411 Length Required", [_JSON], _MISSING_LENGTH),
    ),
    "too_large": (
        _post("/predict", length=10 ** 7),
        _response(SERVER, "413 Request Entity Too Large", [_JSON], _TOO_LARGE),
    ),
    "internal": (
        _post("/predict", PREDICT, len(PREDICT)),
        _response(
            SERVER, "500 Internal Server Error",
            [_JSON, "X-Graph-Version: 0"],
            b'{"error": {"code": "internal", "message": "\'NoneType\' '
            b'object has no attribute \'state_code\'"}}',
        ),
    ),
}
ROUTER = "repro-fleet-router/1.0"
ROUTER_CASES = {
    "predict": (
        _post("/predict", PREDICT, len(PREDICT)),
        _response(ROUTER, "200 OK", [_JSON, "X-Graph-Version: 0"], _PREDICTED),
    ),
    "not_found": (
        _get("/nope"),
        _response(ROUTER, "404 Not Found", [_JSON], _not_found("/fleet")),
    ),
    "missing_length": (
        _post("/predict"),
        _response(ROUTER, "411 Length Required", [_JSON], _MISSING_LENGTH),
    ),
    "too_large": (
        _post("/predict", length=10 ** 7),
        _response(ROUTER, "413 Request Entity Too Large", [_JSON], _TOO_LARGE),
    ),
    "internal": (
        _get("/healthz"),
        _response(
            ROUTER, "500 Internal Server Error", [_JSON],
            b'{"error": {"code": "internal", "message": '
            b'"integer division or modulo by zero"}}',
        ),
    ),
}
BAD_LENGTHS = ["abc", "-1", "1.5", "0x10", "9" * 19]


class _WriteLog:
    """A handler's ``wfile`` that records every write."""

    def __init__(self, wfile, writes):
        self._wfile = wfile
        self._writes = writes

    def write(self, data):
        self._writes.append(bytes(data))
        return self._wfile.write(data)

    def __getattr__(self, name):
        return getattr(self._wfile, name)


def _log_writes(httpd):
    """Record every response write of ``httpd``'s handlers."""
    writes = []

    class Logged(httpd.RequestHandlerClass):
        def setup(self):
            super().setup()
            self.wfile = _WriteLog(self.wfile, writes)

    httpd.RequestHandlerClass = Logged
    return writes


def _engine():
    graph = load_dataset("synthetic", seed=0)
    model = build_model(
        "gcn", graph.num_features, graph.num_classes,
        hidden=8, num_layers=2, dropout=0.0, seed=0,
    )
    return InferenceEngine(
        model, graph, fallback=ShallowFallback(graph, k_hops=2),
        registry=MetricsRegistry(),
    )


@pytest.fixture(scope="module")
def server():
    engine = _engine()
    engine.registry.counter("test.seeded").inc(3)
    server = ModelServer(engine, registry=engine.registry)
    server.writes = _log_writes(server._httpd)
    with server:
        yield server


@pytest.fixture(scope="module")
def router():
    engine = _engine()
    with ModelServer(engine, registry=engine.registry) as replica:
        router = FleetRouter(registry=MetricsRegistry())
        router.writes = _log_writes(router._httpd)
        router.register(0, replica.port)
        router.start()
        try:
            yield router
        finally:
            router.stop()


def _counter(owner, name):
    return owner.registry.snapshot().get(name, {}).get("value", 0)


def _check_cases(owner, cases, broken):
    """Send every case; ``broken`` is a context that makes the next
    request fail inside the endpoint (the structured-500 case)."""
    for name, (request, expected) in cases.items():
        owner.writes.clear()
        if name == "internal":
            with broken():
                response, _ = _exchange(owner.port, request)
        else:
            response, _ = _exchange(owner.port, request)
        assert owner.writes == [response], (
            f"{name}: {len(owner.writes)} writes for one response"
        )
        assert _normalize(response) == expected, name


class TestOneWritePerResponse:
    def test_model_server(self, server):
        @contextlib.contextmanager
        def broken():
            breaker = server.engine.breaker
            server.engine.breaker = None  # predict() raises AttributeError
            try:
                yield
            finally:
                server.engine.breaker = breaker

        _check_cases(server, SERVER_CASES, broken)

    def test_router(self, router):
        @contextlib.contextmanager
        def broken():
            router.handle_healthz = lambda: 1 // 0
            try:
                yield
            finally:
                del router.handle_healthz

        _check_cases(router, ROUTER_CASES, broken)

    def test_invalid_content_length_is_one_write(self, server, router):
        for owner in (server, router):
            owner.writes.clear()
            response, _ = _exchange(
                owner.port, _post("/predict", length="abc")
            )
            assert owner.writes == [response]


def _check_bad_length(owner, length, counter):
    errors = _counter(owner, counter)
    response, closed = _exchange(
        owner.port, _post("/predict", length=length), wait_close=2.0
    )
    head, _, body = response.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 "), (length, head)
    error = json.loads(body)["error"]
    assert error["code"] == "invalid_content_length", (length, error)
    assert repr(length) in error["message"]
    assert closed, f"connection left open after Content-Length {length!r}"
    assert _counter(owner, counter) == errors  # not an internal error


class TestMalformedContentLength:
    @pytest.mark.parametrize("length", BAD_LENGTHS)
    def test_model_server(self, server, length):
        _check_bad_length(server, length, "serve.internal_errors")

    @pytest.mark.parametrize("length", BAD_LENGTHS)
    def test_router(self, router, length):
        _check_bad_length(router, length, "fleet.router.internal_errors")

    def test_padded_length_still_serves(self, server):
        response, closed = _exchange(
            server.port, _post("/predict", PREDICT, f" {len(PREDICT)} "),
            wait_close=0.2,
        )
        assert response.startswith(b"HTTP/1.1 200 OK\r\n")
        assert not closed
