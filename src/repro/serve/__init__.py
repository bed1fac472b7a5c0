"""`repro.serve` — a concurrent serving runtime for SACCS.

Turns the single-threaded :class:`~repro.core.saccs.Saccs` facade into a
service: a micro-batching scheduler that folds concurrent tag queries into
the facade's batched index path (utterances are extracted on the request
thread first), a TTL-evicting concurrent session store, a generation-stamped
ranking cache, a lock-safe metrics registry, and a stdlib-only
JSON-over-HTTP frontend.  Start one with::

    from repro.serve import SaccsHttpServer, SaccsRuntime, ServeConfig

    with SaccsHttpServer(SaccsRuntime(saccs, ServeConfig())) as server:
        print(server.url)   # POST /search, /session/<id>/say, ...

or from the command line: ``repro serve``.
"""

from repro.serve.cache import GenerationalCache, ServingCache
from repro.serve.http import SaccsHttpServer
from repro.serve.metrics import MetricsRegistry, percentile
from repro.serve.protocol import (
    ProtocolError,
    ReindexResponse,
    SayRequest,
    SayResponse,
    SearchRequest,
    SearchResponse,
    error_payload,
)
from repro.serve.runtime import SaccsRuntime, ServeConfig
from repro.serve.sessions import SessionStore, SessionStoreFull

__all__ = [
    "GenerationalCache",
    "MetricsRegistry",
    "ProtocolError",
    "ReindexResponse",
    "SaccsHttpServer",
    "SaccsRuntime",
    "SayRequest",
    "SayResponse",
    "SearchRequest",
    "SearchResponse",
    "ServeConfig",
    "ServingCache",
    "SessionStore",
    "SessionStoreFull",
    "error_payload",
    "percentile",
]
