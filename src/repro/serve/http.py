"""Threaded JSON-over-HTTP frontend for :class:`~repro.serve.runtime.SaccsRuntime`.

Stdlib only (:mod:`http.server`).  Endpoints:

================================  =============================================
``GET  /healthz``                 liveness + index generation
``GET  /metrics``                 :meth:`MetricsRegistry.snapshot` as JSON
``GET  /debug/traces``            recent traces + slow exemplars (summaries);
                                  ``?limit=`` and ``?slow_only=`` filters
``GET  /debug/trace/<id>``        one trace's full span tree
``GET  /debug/timeseries``        collector ring (``?limit=`` newest points)
``GET  /debug/profile``           merged flamegraph over the trace store
                                  (``?limit=``, ``?slow_only=``, ``?diff=``)
``GET  /debug/slo``               burn rates, budgets and alert states
``POST /search``                  rank entities for ``tags`` or an ``utterance``
``POST /session/<id>/say``        one conversational turn in session ``<id>``
``POST /admin/reindex``           fold the tag history (``full``: rebuild
                                  first); bump the generation
================================  =============================================

Every response is JSON; errors use the uniform envelope from
:func:`repro.serve.protocol.error_payload`.  The server is a
``ThreadingHTTPServer`` — each connection gets a thread, and concurrency
control lives in the runtime (request queue + worker pool, per-session
locks), not here.
"""

from __future__ import annotations

import json
import re
import threading
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.serve.protocol import (
    ProtocolError,
    SayRequest,
    SearchRequest,
    error_payload,
)
from repro.serve.runtime import RequestQueueFull, SaccsRuntime
from repro.serve.sessions import SessionStoreFull

__all__ = ["SaccsHttpServer", "make_handler"]

#: request bodies larger than this are rejected outright (serving bound).
MAX_BODY_BYTES = 64 * 1024

#: seconds a connection's socket may sit in one read or write.  A client
#: that stops mid-request frees its handler thread after this long: an idle
#: keep-alive connection is closed (the stdlib's own handling), a body cut
#: short is answered 408 and closed.  Far above the gaps between requests
#: on a live keep-alive connection, which are well under a second.
SOCKET_TIMEOUT_S = 60.0

_SAY_PATH = re.compile(r"^/session/(?P<session_id>[A-Za-z0-9._~-]{1,128})/say$")

_TRACE_PATH = re.compile(r"^/debug/trace/(?P<trace_id>[A-Za-z0-9._-]{1,64})$")

#: upper bound for ``?limit=``-style parameters — callers wanting "all of a
#: bounded store" can pass the store's capacity; anything larger is a typo.
MAX_QUERY_LIMIT = 10_000

_FLAG_VALUES = {
    "1": True, "true": True, "yes": True,
    "0": False, "false": False, "no": False,
}


def query_int(
    params: Dict[str, list],
    name: str,
    default: Optional[int] = None,
    minimum: int = 1,
    maximum: int = MAX_QUERY_LIMIT,
) -> Optional[int]:
    """Parse one optional integer query parameter with bounds validation.

    Out-of-range and non-numeric values raise :class:`ProtocolError` (the
    uniform envelope, code ``bad_query``) instead of being clamped —
    silently clamping would hand an operator a differently-sized window
    than the one they asked for.
    """
    values = params.get(name)
    if not values:
        return default
    raw = values[-1]
    try:
        value = int(raw)
    except ValueError:
        raise ProtocolError(
            f"query parameter {name!r} must be an integer, got {raw!r}",
            code="bad_query",
        ) from None
    if not minimum <= value <= maximum:
        raise ProtocolError(
            f"query parameter {name!r} must lie in [{minimum}, {maximum}], "
            f"got {value}",
            code="bad_query",
        )
    return value


def query_flag(params: Dict[str, list], name: str, default: bool = False) -> bool:
    """Parse one optional boolean query parameter (``?slow_only=true``).

    A bare ``?slow_only`` (no value) reads as true; unrecognised values
    raise the uniform envelope rather than guessing.
    """
    values = params.get(name)
    if not values:
        return default
    raw = values[-1].lower()
    if raw == "":
        return True
    if raw not in _FLAG_VALUES:
        raise ProtocolError(
            f"query parameter {name!r} must be a boolean "
            f"(one of {sorted(_FLAG_VALUES)}), got {values[-1]!r}",
            code="bad_query",
        )
    return _FLAG_VALUES[raw]


def make_handler(runtime: SaccsRuntime):
    """Build a request-handler class bound to ``runtime``."""

    class Handler(BaseHTTPRequestHandler):
        # HTTP/1.1 keeps connections alive between requests (the stdlib
        # default, HTTP/1.0, closes after every response), so a client pays
        # the TCP handshake once per connection, not once per turn.
        protocol_version = "HTTP/1.1"
        # StreamRequestHandler.setup applies this to the connection's socket.
        timeout = SOCKET_TIMEOUT_S

        # ------------------------------------------------------------ plumbing

        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            pass  # request logging goes through metrics, not stderr

        def _send_json(self, status: int, payload, close: bool = False) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if close or self._body_unread():
                # Unread request bytes still sit on the connection and would
                # be parsed as the next request line: close it instead.
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)

        def send_error(self, code, message=None, explain=None):
            """The stdlib's own rejections (unsupported method, malformed or
            oversized request line or headers), as the JSON envelope.

            They happen before any route runs, so the request's framing is
            unknown: the connection is closed, as the stdlib page does."""
            runtime.metrics.incr("errors.client")
            status = HTTPStatus(code)
            self._send_json(
                status,
                error_payload(status.name.lower(), message or status.phrase),
                close=True,
            )

        def _body_unread(self) -> bool:
            """Whether the request declared a body this handler never read."""
            if self._body_read:
                return False
            if "Transfer-Encoding" in self.headers:
                return True
            try:
                return int(self.headers.get("Content-Length") or "0") != 0
            except ValueError:
                return True

        def _content_length(self) -> int:
            raw = self.headers.get("Content-Length") or "0"
            try:
                length = int(raw)
            except ValueError:
                length = -1
            if length < 0:
                # The body's extent is unknown, so it can be neither read nor
                # skipped: answer without touching it (and close, see
                # _send_json).
                raise ProtocolError(f"invalid Content-Length {raw!r}")
            return length

        def _read_json(self):
            length = self._content_length()
            if length > MAX_BODY_BYTES:
                raise ProtocolError(
                    f"request body over {MAX_BODY_BYTES} bytes", status=413, code="too_large"
                )
            try:
                raw = self.rfile.read(length) if length else b""
            except TimeoutError:
                # The client stopped sending mid-body: its fault, not ours.
                # The body stays unread, so _send_json closes the connection.
                raise ProtocolError(
                    f"request body not received within {self.timeout:g} s",
                    status=408,
                    code="request_timeout",
                ) from None
            self._body_read = True
            if not raw:
                raise ProtocolError("empty request body")
            try:
                return json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ProtocolError(f"body is not valid JSON: {exc}") from exc

        def _dispatch(self, handler) -> None:
            try:
                status, payload = handler()
            except ProtocolError as exc:
                runtime.metrics.incr("errors.client")
                status, payload = exc.status, error_payload(exc.code, str(exc))
            except SessionStoreFull as exc:
                runtime.metrics.incr("errors.client")
                status, payload = 503, error_payload("session_store_full", str(exc))
            except RequestQueueFull as exc:
                # A valid request the server could not take: it counts
                # against availability, not against the client.
                runtime.metrics.incr("errors.server")
                status, payload = 503, error_payload("overloaded", str(exc))
            except TimeoutError as exc:
                runtime.metrics.incr("errors.server")
                status, payload = 504, error_payload("timeout", str(exc))
            except Exception as exc:  # noqa: BLE001 - last-resort envelope
                runtime.metrics.incr("errors.server")
                status, payload = 500, error_payload("internal", f"{type(exc).__name__}: {exc}")
            self._send_json(status, payload)

        # ------------------------------------------------------------- routes

        def do_GET(self):  # noqa: N802 - stdlib casing
            self._body_read = False
            # Split path from query up front: routes match on the bare path
            # and read parameters from the parsed mapping, so "/debug/traces"
            # and "/debug/traces?limit=5" hit the same handler.
            split = urlsplit(self.path)
            path = split.path
            params = parse_qs(split.query, keep_blank_values=True)
            if path == "/healthz":
                self._dispatch(lambda: (200, runtime.health()))
            elif path == "/metrics":
                self._dispatch(lambda: (200, runtime.metrics_snapshot()))
            elif path == "/debug/traces":
                self._dispatch(lambda: (200, self._traces_payload(params)))
            elif path == "/debug/timeseries":
                self._dispatch(
                    lambda: (
                        200,
                        runtime.timeseries_snapshot(query_int(params, "limit")),
                    )
                )
            elif path == "/debug/profile":
                self._dispatch(
                    lambda: (
                        200,
                        runtime.profile_payload(
                            limit=query_int(params, "limit"),
                            slow_only=query_flag(params, "slow_only"),
                            diff=query_int(params, "diff"),
                        ),
                    )
                )
            elif path == "/debug/slo":
                self._dispatch(lambda: (200, runtime.slo_snapshot()))
            else:
                match = _TRACE_PATH.match(path)
                if match:
                    self._dispatch(
                        lambda: (200, runtime.trace_payload(match.group("trace_id")))
                    )
                    return
                self._send_json(404, error_payload("not_found", f"no route {path!r}"))

        def _traces_payload(self, params: Dict[str, list]) -> dict:
            limit = query_int(params, "limit", default=20)
            slow_only = query_flag(params, "slow_only")
            return runtime.traces_snapshot(limit=limit, slow_only=slow_only)

        def do_POST(self):  # noqa: N802 - stdlib casing
            self._body_read = False
            if self.path == "/search":
                self._dispatch(self._handle_search)
                return
            if self.path == "/admin/reindex":
                self._dispatch(self._handle_reindex)
                return
            match = _SAY_PATH.match(self.path)
            if match:
                self._dispatch(lambda: self._handle_say(match.group("session_id")))
                return
            self._send_json(404, error_payload("not_found", f"no route {self.path!r}"))

        def _handle_reindex(self) -> Tuple[int, dict]:
            # The body is optional: empty → history fold only;
            # {"full": true}, or its older name {"background": true} → the
            # double-buffered rebuild first (searches keep serving; the
            # replacement index swaps in atomically).
            body = self._read_json() if self._content_length() else {}
            if not isinstance(body, dict):
                raise ProtocolError("reindex body must be a JSON object")
            full = False
            for key in ("full", "background"):
                value = body.get(key, False)
                if not isinstance(value, bool):
                    raise ProtocolError(f"{key!r} must be a boolean")
                full = full or value
            return 200, runtime.reindex(full=full).to_payload()

        def _handle_search(self) -> Tuple[int, dict]:
            request = SearchRequest.parse(self._read_json())
            if request.utterance is not None:
                response = runtime.search_utterance(request.utterance, top_k=request.top_k)
            else:
                response = runtime.search(request.tags, top_k=request.top_k)
            return 200, response.to_payload()

        def _handle_say(self, session_id: str) -> Tuple[int, dict]:
            request = SayRequest.parse(self._read_json())
            return 200, runtime.say(session_id, request.utterance).to_payload()

    return Handler


class SaccsHttpServer:
    """Own a ``ThreadingHTTPServer`` serving one runtime; ephemeral-port friendly."""

    def __init__(self, runtime: SaccsRuntime, host: str = "127.0.0.1", port: int = 0):
        self.runtime = runtime
        self._server = ThreadingHTTPServer((host, port), make_handler(runtime))
        self._server.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (useful when constructed with port 0)."""
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "SaccsHttpServer":
        self.runtime.start()
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="saccs-http", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.runtime.stop()

    def serve_forever(self) -> None:
        """Blocking entry point for the CLI (Ctrl-C to stop)."""
        self.runtime.start()
        try:
            self._server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            self._server.server_close()
            self.runtime.stop()

    def __enter__(self) -> "SaccsHttpServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
