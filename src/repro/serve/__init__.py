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

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "cache": ("GenerationalCache", "ServingCache"),
        "http": ("SaccsHttpServer",),
        "metrics": ("MetricsRegistry", "percentile"),
        "protocol": (
            "ProtocolError",
            "ReindexResponse",
            "SayRequest",
            "SayResponse",
            "SearchRequest",
            "SearchResponse",
            "error_payload",
        ),
        "runtime": ("RequestQueueFull", "SaccsRuntime", "ServeConfig"),
        "sessions": ("SessionStore", "SessionStoreFull"),
    },
)
