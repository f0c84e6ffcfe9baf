"""The front door's header reader against the stdlib's.

A corpus of raw requests goes through :class:`FrontDoorHandler` and
through a plain ``BaseHTTPRequestHandler`` subclass, the reference.  For
each request the two must agree on the bytes written back (``Date``
masked), ``close_connection``, ``command``/``path``/``request_version``
and ``headers.get(...)`` for every header name the servers read.

Deliberate differences (``DIFFERENT``, also in ``docs/serving.md``): a
header line that is not ``name: value`` is answered 400.  The stdlib
folds an obs-fold continuation into the previous value, stops reading
headers at a line without a colon or with whitespace or a non-ASCII byte
in its name (dropping every header after it), splits a line at a bare
CR, and skips a line with an empty name.
"""

import http.server
import io
import re

import pytest

from repro.serve.frontdoor import FrontDoorHandler, FrontDoorServer

pytestmark = pytest.mark.serve

#: Every request header the model server and the router read, plus one
#: they do not.
NAMES = [
    "Content-Length", "X-Trace-Id", "X-Graph-Version", "X-Idempotent",
    "Connection", "Expect", "Host",
]
_DATE = re.compile(rb"\r\nDate: [^\r\n]*")


class _Recorder:
    """Records that a request reached its method instead of answering."""

    reached = False

    def do_GET(self):  # noqa: N802 (stdlib name)
        self.reached = True

    do_POST = do_GET

    def log_message(self, fmt, *args):
        pass


class Reference(_Recorder, http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"


class FrontDoor(_Recorder, FrontDoorHandler):
    pass


def run(handler_class, raw):
    """What ``handler_class`` makes of one request read from ``raw``."""
    handler = handler_class.__new__(handler_class)
    handler.rfile = io.BytesIO(raw)
    handler.wfile = io.BytesIO()
    handler.client_address = ("127.0.0.1", 0)
    handler.handle_one_request()
    seen = {
        "reached": handler.reached,
        "written": _DATE.sub(b"\r\nDate: <date>", handler.wfile.getvalue()),
        "close_connection": handler.close_connection,
        "command": getattr(handler, "command", None),
        "path": getattr(handler, "path", None),
        "request_version": getattr(handler, "request_version", None),
    }
    if handler.reached:
        for name in NAMES:
            seen[name] = handler.headers.get(name)
            seen[name.lower() + " (default)"] = handler.headers.get(
                name.lower(), "-"
            )
        seen["unread"] = handler.rfile.read()
    return seen


def _request(*header_lines, start=b"POST /predict HTTP/1.1", body=b""):
    return b"".join(line + b"\r\n" for line in (start, *header_lines)) + (
        b"\r\n" + body
    )


def _many(count):
    return _request(*(b"X-H%d: v" % i for i in range(count)),
                    start=b"GET /healthz HTTP/1.1")


SAME = {
    "plain": _request(
        b"Host: 127.0.0.1:8000", b"Accept-Encoding: identity",
        b"Content-Length: 2", b"Content-Type: application/json",
        body=b"{}",
    ),
    "mixed_case_names": _request(
        b"cOnTeNt-LeNgTh: 2", b"x-TRACE-id: abc", b"X-GRAPH-VERSION: 3",
        b"x-idempotent: false", body=b"{}",
    ),
    "duplicate_headers": _request(
        b"X-Trace-Id: first", b"x-trace-id: second", b"Content-Length: 2",
        b"Content-Length: 5", body=b"{}",
    ),
    "whitespace_around_values": _request(
        b"Content-Length:   2  ", b"X-Trace-Id:\t abc \t",
        b"X-Graph-Version:7", b"X-Idempotent: ", body=b"{}",
    ),
    "obs_text_value": _request(b"X-Trace-Id: caf\xe9", body=b""),
    "bare_lf": b"GET /healthz HTTP/1.1\nX-Trace-Id: lf\n\n",
    "headers_end_at_eof": b"GET /healthz HTTP/1.1\r\nX-Trace-Id: t",
    "http10": _request(start=b"GET /healthz HTTP/1.0"),
    "http10_keep_alive": _request(
        b"Connection: keep-alive", start=b"GET /healthz HTTP/1.0"
    ),
    "http10_keep_alive_any_case": _request(
        b"connection: Keep-Alive", start=b"GET /healthz HTTP/1.0"
    ),
    "connection_close": _request(
        b"Connection: close", start=b"GET /healthz HTTP/1.1"
    ),
    "expect_100_continue": _request(
        b"Expect: 100-continue", b"Content-Length: 2", body=b"{}"
    ),
    "expect_100_continue_http10": _request(
        b"Expect: 100-Continue", b"Content-Length: 2",
        start=b"POST /predict HTTP/1.0", body=b"{}",
    ),
    "header_line_65536_bytes": _request(
        b"X-Trace-Id: " + b"a" * (65536 - 14)
    ),
    "header_line_65537_bytes": _request(
        b"X-Trace-Id: " + b"a" * (65537 - 14)
    ),
    "99_headers": _many(99),
    "100_headers": _many(100),
    "101_headers": _many(101),
    "request_line_too_long": _request(
        start=b"GET /" + b"a" * 65536 + b" HTTP/1.1"
    ),
    "bad_version": _request(start=b"GET /healthz HTTP/1.x"),
    "bad_version_prefix": _request(start=b"GET /healthz HTTQ/1.1"),
    "superscript_version": _request(start=b"GET /healthz HTTP/1.\xb9"),
    "three_part_version": _request(start=b"GET /healthz HTTP/1.1.1"),
    "http2": _request(start=b"GET /healthz HTTP/2.0"),
    "http_1_10": _request(start=b"GET /healthz HTTP/1.10"),
    "http_01_1_expect": _request(
        b"Expect: 100-continue", start=b"GET /healthz HTTP/01.1"
    ),
    "bad_syntax": _request(start=b"GET /healthz extra HTTP/1.1"),
    "http09_get": b"GET /healthz\r\n",
    "http09_post": b"POST /predict\r\n\r\n",
    "double_slash_path": _request(start=b"GET //x//y HTTP/1.1"),
    "blank_request_line": b"\r\n",
    "no_request": b"",
    "unsupported_method": _request(start=b"PUT /predict HTTP/1.1"),
}

DIFFERENT = {
    "obs_fold": _request(b"X-Trace-Id: a", b"  b", b"Content-Length: 0"),
    "colon_less": _request(
        b"X-Trace-Id: a", b"not a header", b"Content-Length: 0"
    ),
    "space_before_colon": _request(b"Content-Length : 2", body=b"{}"),
    "non_ascii_name": _request(b"X-Tr\xe4ce: a", b"Content-Length: 0"),
    "leading_continuation": _request(b" first", b"Content-Length: 0"),
    "empty_name": _request(b": v", b"Content-Length: 0"),
    "bare_cr": _request(b"X-Trace-Id: a\rX-Graph-Version: 2"),
}


@pytest.mark.parametrize("name", sorted(SAME))
def test_same_as_stdlib(name):
    assert run(FrontDoor, SAME[name]) == run(Reference, SAME[name])


@pytest.mark.parametrize("name", sorted(DIFFERENT))
def test_malformed_header_line_is_400(name):
    raw = DIFFERENT[name]
    ours = run(FrontDoor, raw)
    assert not ours["reached"]
    assert ours["close_connection"] is True
    assert ours["written"].startswith(b"HTTP/1.1 400 Bad header line\r\n")
    # The stdlib accepts these requests, with the headers shown below.
    assert run(Reference, raw)["reached"]


def test_stdlib_behaviour_on_malformed_lines():
    """What the 400s replace (documents the differences)."""
    fold = run(Reference, DIFFERENT["obs_fold"])
    assert fold["X-Trace-Id"] == "a\r\n  b"
    colon_less = run(Reference, DIFFERENT["colon_less"])
    assert colon_less["X-Trace-Id"] == "a"
    assert colon_less["Content-Length"] is None  # dropped after the bad line
    assert run(Reference, DIFFERENT["space_before_colon"])[
        "Content-Length"] is None
    bare_cr = run(Reference, DIFFERENT["bare_cr"])
    assert (bare_cr["X-Trace-Id"], bare_cr["X-Graph-Version"]) == ("a", "2")


def test_limits_answer_431():
    for name in ("header_line_65537_bytes", "100_headers", "101_headers"):
        written = run(FrontDoor, SAME[name])["written"]
        assert written.startswith(b"HTTP/1.1 431 "), name
    assert run(FrontDoor, SAME["99_headers"])["reached"]
    assert run(FrontDoor, SAME["header_line_65536_bytes"])["reached"]


def test_status_codes_of_the_request_line_rules():
    assert run(FrontDoor, SAME["request_line_too_long"])["written"].startswith(
        b"HTTP/1.1 414 ")
    assert run(FrontDoor, SAME["bad_syntax"])["written"].startswith(
        b"HTTP/1.1 400 ")
    # A bad or unsupported version is answered before the version is
    # known, so (as in the stdlib) the reply has no status line.
    assert b"Error code: 505" in run(FrontDoor, SAME["http2"])["written"]
    assert b"Error code: 400" in run(FrontDoor, SAME["bad_version"])["written"]
    continued = run(FrontDoor, SAME["expect_100_continue"])
    assert continued["written"] == b"HTTP/1.1 100 Continue\r\n\r\n"
    assert run(FrontDoor, SAME["double_slash_path"])["path"] == "/x//y"


def test_date_is_formatted_once_per_second(monkeypatch):
    httpd = FrontDoorServer(("127.0.0.1", 0), FrontDoor, owner=None)
    try:
        now = [1_700_000_000.25]
        monkeypatch.setattr("repro.serve.frontdoor.time.time", lambda: now[0])
        first = httpd.http_date()
        assert first == "Tue, 14 Nov 2023 22:13:20 GMT"
        now[0] += 0.7
        assert httpd.http_date() is first
        now[0] += 0.1
        assert httpd.http_date() == "Tue, 14 Nov 2023 22:13:21 GMT"
    finally:
        httpd.server_close()
