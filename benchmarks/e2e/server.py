"""Server process entry: ``python -m benchmarks.e2e.server --model DIR``.

Builds the runtime exactly as ``repro serve`` does (same defaults, request
tracing 1-in-32, collector and SLO monitor on) except for the neural
extractor, binds an ephemeral port, and prints one JSON line
``{"port", "setup"}`` where ``setup`` holds the seconds each set-up phase
took.  It serves until SIGTERM.

With ``--spans PATH`` every layer call is wrapped (see
:mod:`benchmarks.e2e.spans`) and, at shutdown, the spans, the extraction
counts and the engine's stage timings are written to ``PATH``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path


def main(argv=None) -> None:
    # Block SIGTERM before any thread exists, so every thread inherits the
    # mask and the main thread alone receives it through sigwait().
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.server")
    parser.add_argument("--model", required=True, help="model directory")
    parser.add_argument("--spans", help="record layer spans and write them here")
    options = parser.parse_args(argv)

    import dataclasses

    from benchmarks.e2e import build
    from repro.obs import TraceStore, Tracer, default_slos, get_logger
    from repro.serve import SaccsRuntime, ServeConfig
    from repro.serve import http as serve_http

    args = build.serve_defaults()
    phases = {}
    clock = time.perf_counter()

    def lap(name):
        nonlocal clock
        now = time.perf_counter()
        phases[name] = now - clock
        clock = now

    world = build.make_world(args)
    lap("world")
    extractor = build.load_extractor(Path(options.model))
    lap("model")
    saccs = build.build_saccs(args, world, extractor)
    saccs.ingest_reviews()
    lap("ingest")
    saccs.build_index(build.dimension_tags(world))
    lap("index")
    # The rest mirrors repro.cli._cmd_serve.
    config = ServeConfig(
        max_batch_size=args.max_batch_size,
        max_wait_ms=args.max_wait_ms,
        workers=args.workers,
        cache_size=args.cache_size,
        session_ttl_seconds=args.session_ttl,
        collector_enabled=not args.no_collector,
        collector_interval_seconds=args.collector_interval,
        collector_retention=args.collector_retention,
    )
    tracer = None
    if not args.no_trace:
        tracer = Tracer(
            store=TraceStore(
                capacity=args.trace_capacity,
                slow_threshold_seconds=args.slow_ms / 1000.0,
            ),
            logger=get_logger("repro.serve"),
            sample_every=args.trace_sample,
        )
    slos = tuple(
        dataclasses.replace(spec, threshold_ms=args.slo_latency_ms)
        if spec.objective == "latency"
        else spec
        for spec in default_slos()
    )
    runtime = SaccsRuntime(saccs, config, tracer=tracer, slos=slos)
    recorder = engine_timings = None
    make_handler = serve_http.make_handler
    if options.spans:
        from benchmarks.e2e.spans import SpanRecorder, instrument, traced_handler_factory

        recorder = SpanRecorder()
        engine_timings = instrument(recorder, runtime)
        serve_http.make_handler = traced_handler_factory(recorder, make_handler)
    try:
        server = serve_http.SaccsHttpServer(runtime, host=args.host, port=0)
    finally:
        serve_http.make_handler = make_handler
    server.start()
    lap("serve")
    print(json.dumps({"port": server.port, "setup": phases}), flush=True)

    signal.sigwait({signal.SIGTERM})
    # The client closes its connections before it signals, so nothing is in
    # flight: write the spans and leave without the HTTP server's graceful
    # shutdown, which polls every 0.5 s and would add to every cold start.
    if recorder is not None:
        payload = {
            "spans": recorder.spans,
            "counts": dict(recorder.counts),
            "engine_seconds": engine_timings(),
        }
        tmp = options.spans + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, options.spans)
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(0)


if __name__ == "__main__":
    main()
