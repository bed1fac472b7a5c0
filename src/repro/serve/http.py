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
``POST /admin/reindex``           fold the tag history; bump the generation
================================  =============================================

Every response is JSON; errors use the uniform envelope from
:func:`repro.serve.protocol.error_payload`.  The server is a
``ThreadingHTTPServer`` — each connection gets a thread, and concurrency
control lives in the runtime (micro-batcher + per-session locks), not here.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.serve.protocol import (
    ProtocolError,
    SayRequest,
    SayResponse,
    SearchRequest,
    error_payload,
)
from repro.serve.runtime import SaccsRuntime
from repro.serve.sessions import SessionStoreFull

__all__ = ["SaccsHttpServer", "make_handler"]

#: request bodies larger than this are rejected outright (serving bound).
MAX_BODY_BYTES = 64 * 1024

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
        # Keep the default HTTP/1.1 keep-alive behaviour off balance-free:
        # closed-loop load generators reuse connections when this is 1.1.
        protocol_version = "HTTP/1.1"

        # ------------------------------------------------------------ plumbing

        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            pass  # request logging goes through metrics, not stderr

        def _send_json(self, status: int, payload) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _content_length(self) -> int:
            raw = self.headers.get("Content-Length") or "0"
            try:
                length = int(raw)
            except ValueError:
                length = -1
            if length < 0:
                # The body's extent is unknown, so it can be neither read nor
                # skipped: answer without touching it and drop the connection.
                self.close_connection = True
                raise ProtocolError(f"invalid Content-Length {raw!r}")
            return length

        def _read_json(self):
            length = self._content_length()
            if length > MAX_BODY_BYTES:
                raise ProtocolError(
                    f"request body over {MAX_BODY_BYTES} bytes", status=413, code="too_large"
                )
            raw = self.rfile.read(length) if length else b""
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
            except TimeoutError as exc:
                runtime.metrics.incr("errors.server")
                status, payload = 504, error_payload("timeout", str(exc))
            except Exception as exc:  # noqa: BLE001 - last-resort envelope
                runtime.metrics.incr("errors.server")
                status, payload = 500, error_payload("internal", f"{type(exc).__name__}: {exc}")
            self._send_json(status, payload)

        # ------------------------------------------------------------- routes

        def do_GET(self):  # noqa: N802 - stdlib casing
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
            # {"full": true} → re-extract the corpus and rebuild first;
            # {"background": true} → double-buffered rebuild (searches keep
            # serving; the replacement index swaps in atomically).
            body = self._read_json() if self._content_length() else {}
            if not isinstance(body, dict):
                raise ProtocolError("reindex body must be a JSON object")
            full = body.get("full", False)
            if not isinstance(full, bool):
                raise ProtocolError("'full' must be a boolean")
            background = body.get("background", False)
            if not isinstance(background, bool):
                raise ProtocolError("'background' must be a boolean")
            return 200, runtime.reindex(full=full, background=background).to_payload()

        def _handle_search(self) -> Tuple[int, dict]:
            request = SearchRequest.parse(self._read_json())
            if request.utterance is not None:
                response = runtime.search_utterance(request.utterance, top_k=request.top_k)
            else:
                response = runtime.search(request.tags, top_k=request.top_k)
            return 200, response.to_payload()

        def _handle_say(self, session_id: str) -> Tuple[int, dict]:
            request = SayRequest.parse(self._read_json())
            turn, summary = runtime.say(session_id, request.utterance)
            response = SayResponse(
                session_id=session_id,
                turn=turn,
                state_summary=summary,
                generation=runtime.generation,
            )
            return 200, response.to_payload()

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
