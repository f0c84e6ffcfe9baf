"""The HTTP front door shared by the model server and the fleet router.

:class:`~repro.serve.ModelServer` and :class:`~repro.serve.FleetRouter`
answer small JSON requests over keep-alive connections, so on a warm
predict the stdlib's per-request work is most of the time.
:class:`FrontDoorHandler` keeps ``http.server``'s request loop, its
request-line rules and its error pages, and drops what these servers do
not need:

- **one write per response** — status line, headers and body leave in
  one ``wfile.write`` (the stdlib flushes the headers, then writes the
  body, which costs a second segment and a second client wake-up);
- **a header reader in place of** ``http.client.parse_headers`` and its
  ``email`` parse — same limits (a line over 65,536 bytes or more than
  100 lines is 431), same ``Connection`` and ``Expect: 100-continue``
  handling, ``headers.get(name)`` case-insensitive with the first of a
  repeated name winning.  One deliberate difference: a header line that
  is not ``name: value`` (an obs-fold continuation, a colon-less line,
  whitespace or a non-ASCII byte in the name, a bare CR) is answered
  400, where the stdlib folds it into the previous value or silently
  stops reading headers at it;
- request logging formatted only when DEBUG is on, and the ``Date``
  value formatted at most once per second;
- **one body reader** with the size guard (:meth:`_read_body`).

``tests/test_frontdoor.py`` holds a plain ``BaseHTTPRequestHandler`` as
the reference for the header reader.
"""

from __future__ import annotations

import email.utils
import logging
import re
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Iterable, Optional, Tuple

from repro.obs import get_logger
from repro.serve.errors import PayloadTooLarge, ServeError, ValidationError

# The stdlib's header limits (``http.client._MAXLINE`` / ``_MAXHEADERS``;
# the count includes the blank line that ends the headers).
_MAX_LINE = 65536
_MAX_HEADERS = 100
_END_OF_HEADERS = (b"\r\n", b"\n", b"")
# A field name as ``email.feedparser`` accepts one: printable ASCII
# without space or colon.
_FIELD_NAME = re.compile(r"[!-9;-~]+")
# A Content-Length that does not fit in 64 bits is as invalid as a
# negative one (``int`` would also refuse past 4,300 digits).
_MAX_LENGTH_DIGITS = 18

#: The headers of a plain JSON response.
JSON_HEADERS = (("Content-Type", "application/json"),)


class RequestHeaders(dict):
    """Request headers keyed by lower-cased name; the first value wins."""

    __slots__ = ()

    def get(self, name: str, default=None):
        return dict.get(self, name.lower(), default)


class FrontDoorServer(ThreadingHTTPServer):
    """Threading HTTP server whose handlers answer for ``owner``."""

    # socketserver's default listen backlog (5) drops SYNs under a
    # stampede of simultaneous connects, and a dropped SYN costs the
    # client a ~1s kernel retransmit.  Shedding is the owner's job —
    # done deliberately with a 429 — not the accept queue's.
    request_queue_size = 128

    def __init__(self, address, handler_class, owner) -> None:
        self.owner = owner
        self._date: Tuple[Optional[int], str] = (None, "")
        super().__init__(address, handler_class)

    def http_date(self) -> str:
        """The ``Date`` header value, formatted at most once per second."""
        now = int(time.time())
        date = self._date
        if date[0] != now:
            date = self._date = (now, email.utils.formatdate(now, usegmt=True))
        return date[1]


def _http_version(version: str) -> Optional[Tuple[int, int]]:
    """``(major, minor)`` of an ``HTTP/x.y`` token by the stdlib's rules."""
    if not version.startswith("HTTP/"):
        return None
    parts = version[5:].split(".")
    if len(parts) != 2 or not all(
        part.isdigit() and len(part) <= 10 for part in parts
    ):
        return None
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:  # superscript digits pass isdigit() only
        return None


class FrontDoorHandler(BaseHTTPRequestHandler):
    """Request handling shared by the model server and the fleet router.

    Subclasses implement ``do_GET``/``do_POST`` in terms of
    :meth:`_dispatch` and :meth:`_read_body`, and :meth:`_render`, which
    turns an endpoint's result into ``(status, body, headers)``.
    """

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    #: Logger for request lines (DEBUG) and unexpected errors.
    log = get_logger("serve")
    #: Counter in the owner's registry incremented on every structured 500.
    internal_errors_counter = "serve.internal_errors"

    # -- request -------------------------------------------------------
    def parse_request(self) -> bool:
        """The stdlib's request-line rules, then :meth:`_read_headers`.

        Sets ``command``, ``path``, ``request_version``, ``headers`` and
        ``close_connection`` as the stdlib does.  Returns False once the
        error response is sent (or for an empty request line).
        """
        self.command = None
        self.request_version = self.default_request_version
        self.close_connection = True
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        self.requestline = requestline
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            number = (1, 1) if version == "HTTP/1.1" else _http_version(version)
            if number is None:
                self.send_error(
                    HTTPStatus.BAD_REQUEST,
                    "Bad request version (%r)" % version,
                )
                return False
            if number >= (2, 0):
                self.send_error(
                    HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                    "Invalid HTTP version (%s)" % version[5:],
                )
                return False
            self.close_connection = number < (1, 1)
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(
                HTTPStatus.BAD_REQUEST,
                "Bad request syntax (%r)" % requestline,
            )
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(
                    HTTPStatus.BAD_REQUEST,
                    "Bad HTTP/0.9 request type (%r)" % command,
                )
                return False
        self.command = command
        # A leading '//' reads as a scheme-less absolute URI to clients
        # (an open-redirect vector); the stdlib reduces it to one slash.
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path

        headers = self._read_headers()
        if headers is None:
            return False
        self.headers = headers
        connection = headers.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if (
            headers.get("expect", "").lower() == "100-continue"
            and self.request_version >= "HTTP/1.1"
        ):
            return self.handle_expect_100()
        return True

    def _read_headers(self) -> Optional[RequestHeaders]:
        """Read header lines up to the blank line; None once an error is sent."""
        headers = RequestHeaders()
        readline = self.rfile.readline
        count = 0
        while True:
            line = readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                self.send_error(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                    "Line too long",
                    f"got more than {_MAX_LINE} bytes when reading header line",
                )
                return None
            count += 1
            if count > _MAX_HEADERS:
                self.send_error(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                    "Too many headers",
                    f"got more than {_MAX_HEADERS} headers",
                )
                return None
            if line in _END_OF_HEADERS:
                return headers
            text = line.decode("iso-8859-1").rstrip("\r\n")
            name, colon, value = text.partition(":")
            if not colon or "\r" in value or not _FIELD_NAME.fullmatch(name):
                self.send_error(
                    HTTPStatus.BAD_REQUEST, "Bad header line", repr(text[:200])
                )
                return None
            headers.setdefault(name.lower(), value.lstrip(" \t"))

    def _read_body(self, endpoint: str, limit: int) -> bytes:
        """The request body, read after the ``Content-Length`` checks.

        411 without the header, 400 ``invalid_content_length`` unless it
        is a decimal byte count of at most 18 digits, 413 past ``limit``.
        The last two close the connection, since the body is left unread.
        """
        length = self.headers.get("Content-Length")
        if length is None:
            raise ValidationError(
                f"POST {endpoint} requires a Content-Length header",
                code="missing_content_length", status=411,
            )
        digits = length.strip()
        if not (
            digits.isascii()
            and digits.isdigit()
            and len(digits) <= _MAX_LENGTH_DIGITS
        ):
            self.close_connection = True
            raise ValidationError(
                f"Content-Length must be a decimal byte count, got {length!r}",
                code="invalid_content_length",
            )
        size = int(digits)
        if size > limit:
            self.close_connection = True
            raise PayloadTooLarge(
                f"request body is {size} bytes, limit is {limit}",
                detail={"bytes": size, "limit": limit},
            )
        return self.rfile.read(size)

    # -- response ------------------------------------------------------
    def _render(self, result) -> Tuple[int, bytes, Iterable[Tuple[str, str]]]:
        """``(status, body, headers)`` for an endpoint's result tuple."""
        raise NotImplementedError

    def _dispatch(self, handler) -> None:
        """Answer with ``handler()``'s result.

        A :class:`ServeError` becomes its structured JSON body; any other
        exception a structured 500 (code ``internal``), never the
        stdlib's HTML traceback page.
        """
        try:
            response = self._render(handler())
        except ServeError as exc:
            response = self._render((exc.status, exc.to_dict()))
        except Exception as exc:  # structured 500, never an HTML traceback
            self.log.warning(
                "unexpected error on %s %s: %r", self.command, self.path, exc
            )
            self.server.owner.registry.counter(
                self.internal_errors_counter
            ).inc()
            response = self._render((500, {
                "error": {"code": "internal", "message": str(exc) or repr(exc)}
            }))
        try:
            self._send(*response)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response

    def _send(
        self, status: int, body: bytes, headers: Iterable[Tuple[str, str]]
    ) -> None:
        """Send one response in one write.

        The bytes are the stdlib's: status line, ``Server``, ``Date``,
        ``headers`` in order, ``Content-Length``, blank line, body — or
        the body alone to an HTTP/0.9 request.
        """
        self.log_request(status)
        if self.request_version == "HTTP/0.9":
            self.wfile.write(body)
            return
        reason = self.responses[status][0] if status in self.responses else ""
        head = [
            f"{self.protocol_version} {status} {reason}\r\n"
            f"Server: {self.version_string()}\r\n"
            f"Date: {self.server.http_date()}\r\n"
        ]
        head.extend(f"{name}: {value}\r\n" for name, value in headers)
        head.append(f"Content-Length: {len(body)}\r\n\r\n")
        self.wfile.write("".join(head).encode("latin-1") + body)

    def log_message(self, fmt, *args) -> None:
        # The stdlib logs every response; format only when it is kept.
        if self.log.isEnabledFor(logging.DEBUG):
            self.log.debug("%s %s", self.address_string(), fmt % args)
