"""Command-line interface: generate worlds, build indexes, run searches.

Usage (after ``pip install -e .`` / ``python setup.py develop``)::

    python -m repro world generate --entities 60 --reviews 15 --out world.json
    python -m repro world show --path world.json
    python -m repro index build --world world.json --out index/
    python -m repro search --world world.json --index index/ \
        "delicious food" "nice staff"
    python -m repro serve --world world.json --snapshot-dir index/
    python -m repro datasets

``index build`` writes an index snapshot directory (``repro.core.snapshot``),
which ``search --index`` and ``serve --snapshot-dir`` both read.  All CLI
paths use the oracle extractor (gold review annotations) so they run in
seconds; the neural pipeline lives in the examples and benchmarks.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import numpy as np

__all__ = ["main", "build_parser"]


def _cmd_world_generate(args: argparse.Namespace) -> int:
    from repro.data import (
        CatalogConfig,
        FraudConfig,
        ReviewConfig,
        WorldConfig,
        build_world,
        inject_fraud,
        save_world,
    )

    config = WorldConfig(
        catalog=CatalogConfig(num_entities=args.entities, seed=args.seed),
        reviews=ReviewConfig(mean_reviews_per_entity=args.reviews, seed=args.seed),
    )
    world = build_world(config)
    if args.fraud:
        campaigns = inject_fraud(world, FraudConfig(seed=args.seed))
        print(f"injected {len(campaigns)} fraud campaigns")
    save_world(world, args.out)
    print(f"wrote {len(world.entities)} entities / {world.num_reviews} reviews to {args.out}")
    return 0


def _cmd_world_show(args: argparse.Namespace) -> int:
    from repro.data import load_world

    world = load_world(args.path)
    print(f"entities: {len(world.entities)}   reviews: {world.num_reviews}")
    stars = [e.stars for e in world.entities]
    print(f"stars: min={min(stars)} mean={np.mean(stars):.2f} max={max(stars)}")
    print("sample entities:")
    for entity in world.entities[: args.limit]:
        review_count = len(world.reviews.get(entity.entity_id, []))
        print(f"  {entity.entity_id}  {entity.name:<24} {entity.stars} stars  {review_count} reviews")
    if args.entity:
        for review in world.reviews.get(args.entity, [])[: args.limit]:
            print(f"  [{review.review_id}] {review.text}")
    return 0


def _cmd_index_build(args: argparse.Namespace) -> int:
    from repro.core import OracleExtractor, Saccs, SaccsConfig, SubjectiveTag, save_snapshot
    from repro.data import load_world
    from repro.text import ConceptualSimilarity, restaurant_lexicon

    world = load_world(args.world)
    similarity = ConceptualSimilarity(restaurant_lexicon())
    config = SaccsConfig(theta_index=args.theta, theta_mode=args.theta_mode)
    review_filter = None
    if args.filter_fraud:
        from repro.core import FakeReviewFilter

        review_filter = FakeReviewFilter()
    saccs = Saccs(
        world.entities, world.reviews, OracleExtractor(), similarity, config,
        review_filter=review_filter,
    )
    tags = [SubjectiveTag.from_text(d.name) for d in world.dimensions]
    if args.tags:
        tags = [SubjectiveTag.from_text(t) for t in args.tags]
    saccs.build_index(tags)
    save_snapshot(saccs.index, args.out)
    print(f"indexed {len(saccs.index)} tags over {len(world.entities)} entities -> {args.out}")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.core import OracleExtractor, Saccs, SaccsConfig, SubjectiveTag, load_snapshot
    from repro.data import load_world
    from repro.text import ConceptualSimilarity, restaurant_lexicon

    world = load_world(args.world)
    similarity = ConceptualSimilarity(restaurant_lexicon())
    index = load_snapshot(args.index, similarity)
    saccs = Saccs(
        world.entities,
        world.reviews,
        OracleExtractor(),
        similarity,
        SaccsConfig(theta_filter=args.theta, top_k=args.top_k),
    )
    saccs.adopt_index(index)
    name_of = {e.entity_id: e.name for e in world.entities}
    tags = [SubjectiveTag.from_text(t) for t in args.tags]
    for tag in tags:
        if tag not in index:
            print(f"(tag {tag.text!r} not indexed; combined similar tags)")
    results = saccs.answer_tags(tags)
    print(f"query: {', '.join(t.text for t in tags)}")
    for rank, (entity_id, score) in enumerate(results, start=1):
        print(f"  {rank:2d}. {name_of.get(entity_id, entity_id):<26} {score:.3f}")
    return 0


def _build_serving_saccs(args: argparse.Namespace):
    """A built oracle-extractor facade from a snapshot or a generated world.

    Returns ``(saccs, snapshot_note)``: ``snapshot_note`` is
    ``(snapshot_sha256, load_seconds)`` when the index warm-started from
    ``--snapshot-dir``, else ``None`` (cold build — which also writes a
    fresh snapshot to the directory when one was requested).
    """
    import json
    import time
    from pathlib import Path

    from repro.core import OracleExtractor, Saccs, SaccsConfig, SubjectiveTag
    from repro.core.snapshot import (
        MANIFEST_NAME,
        SnapshotError,
        load_snapshot,
        save_snapshot,
    )
    from repro.data import WorldConfig, build_world, load_world
    from repro.text import ConceptualSimilarity, restaurant_lexicon

    if args.world:
        world = load_world(args.world)
    else:
        world = build_world(
            WorldConfig.small(
                seed=args.seed, num_entities=args.entities, mean_reviews=args.reviews
            )
        )
    similarity = ConceptualSimilarity(restaurant_lexicon())
    saccs = Saccs(
        world.entities,
        world.reviews,
        OracleExtractor(),
        similarity,
        SaccsConfig(
            encoder_precision=getattr(args, "encoder_precision", "float64"),
        ),
    )
    snapshot_dir = getattr(args, "snapshot_dir", None)
    if snapshot_dir:
        started = time.perf_counter()
        try:
            index = load_snapshot(snapshot_dir, similarity)
        except SnapshotError as exc:
            print(f"snapshot unusable ({exc}); cold-building the index")
        else:
            saccs.adopt_index(index)
            load_seconds = time.perf_counter() - started
            manifest = json.loads(
                (Path(snapshot_dir) / MANIFEST_NAME).read_text(encoding="utf-8")
            )
            print(
                f"warm-started {len(index)} index tags from {snapshot_dir} "
                f"in {load_seconds:.2f}s"
            )
            return saccs, (str(manifest.get("snapshot_sha256")), load_seconds)
    saccs.build_index([SubjectiveTag.from_text(d.name) for d in world.dimensions])
    if snapshot_dir:
        manifest = save_snapshot(saccs.index, snapshot_dir)
        print(
            f"wrote snapshot {manifest['snapshot_sha256'][:12]}… to {snapshot_dir}"
        )
    return saccs, None


def _cmd_serve(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.obs import TraceStore, Tracer, default_slos, get_logger
    from repro.serve import SaccsHttpServer, SaccsRuntime, ServeConfig

    saccs, snapshot_note = _build_serving_saccs(args)
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
    if snapshot_note is not None:
        runtime.note_snapshot_load(*snapshot_note)
    server = SaccsHttpServer(runtime, host=args.host, port=args.port)
    print(
        f"serving {len(saccs.index)} index tags over {len(saccs.entities)} entities "
        f"at {server.url}"
    )
    print("  POST /search        POST /session/<id>/say   POST /admin/reindex")
    print("  GET  /healthz       GET  /metrics")
    if tracer is not None:
        print("  GET  /debug/traces  GET  /debug/trace/<id>   (repro trace <id>)")
    if not args.no_collector:
        print("  GET  /debug/timeseries  GET  /debug/slo      (repro top)")
    if tracer is not None:
        print("  GET  /debug/profile                          (repro profile)")
    print("  (Ctrl-C to stop)")
    server.serve_forever()
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json
    from urllib.error import HTTPError, URLError
    from urllib.request import urlopen

    from repro.obs import render_trace, to_collapsed_stacks

    def render(trace) -> int:
        print(to_collapsed_stacks(trace) if args.collapsed else render_trace(trace))
        return 0

    if args.input:
        with open(args.input, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        # Accept both a bare trace payload and the /debug/trace envelope.
        return render(payload.get("trace", payload))
    try:
        if args.trace_id is None:
            with urlopen(f"{args.url}/debug/traces") as response:
                snapshot = json.load(response)
            if not snapshot.get("enabled", True):
                print("tracing is disabled on this server (started with --no-trace)")
                return 1
            for section in ("recent", "slow"):
                print(f"{section} ({len(snapshot[section])}):")
                for summary in snapshot[section]:
                    print(
                        f"  {summary['trace_id']}  {summary['name']:<16}"
                        f"{summary['duration_seconds'] * 1000:>10.3f}ms"
                        f"  {summary['spans']:>3} spans"
                        + ("  slow" if summary["slow"] else "")
                    )
            return 0
        with urlopen(f"{args.url}/debug/trace/{args.trace_id}") as response:
            payload = json.load(response)
        return render(payload["trace"])
    except HTTPError as exc:
        detail = exc.read().decode("utf-8", "replace")
        print(f"server returned {exc.code}: {detail}", file=sys.stderr)
        return 1
    except URLError as exc:
        print(f"cannot reach {args.url}: {exc.reason}", file=sys.stderr)
        return 1


def _cmd_profile(args: argparse.Namespace) -> int:
    import json
    from urllib.error import HTTPError, URLError
    from urllib.parse import urlencode
    from urllib.request import urlopen

    from repro.obs import merge_traces, render_profile, render_profile_diff

    def render(payload) -> int:
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        elif "diff" in payload:
            print(render_profile_diff(payload["diff"], top=args.top))
        else:
            print(render_profile(payload, top=args.top))
        return 0

    if args.input:
        with open(args.input, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        # Accept a saved /debug/profile payload, a /debug/profile?diff=
        # payload, or a plain list of trace payloads (merged locally).
        if isinstance(payload, list):
            payload = merge_traces(payload)
        return render(payload)
    params = {}
    if args.limit is not None:
        params["limit"] = args.limit
    if args.slow_only:
        params["slow_only"] = "true"
    if args.diff is not None:
        params["diff"] = args.diff
    query = f"?{urlencode(params)}" if params else ""
    try:
        with urlopen(f"{args.url}/debug/profile{query}") as response:
            return render(json.load(response))
    except HTTPError as exc:
        detail = exc.read().decode("utf-8", "replace")
        print(f"server returned {exc.code}: {detail}", file=sys.stderr)
        return 1
    except URLError as exc:
        print(f"cannot reach {args.url}: {exc.reason}", file=sys.stderr)
        return 1


def _cmd_top(args: argparse.Namespace) -> int:
    import json
    import time
    from urllib.error import HTTPError, URLError
    from urllib.request import urlopen

    from repro.obs.dashboard import render_dashboard

    def fetch(path):
        try:
            with urlopen(f"{args.url}{path}") as response:
                return json.load(response)
        except (HTTPError, URLError, json.JSONDecodeError):
            return None

    frames = 0
    while True:
        health = fetch("/healthz")
        if health is None and frames == 0:
            print(f"cannot reach {args.url}", file=sys.stderr)
            return 1
        frame = render_dashboard(
            health,
            fetch(f"/debug/timeseries?limit={args.window}"),
            fetch("/debug/slo"),
        )
        if frames and not args.no_clear:
            # Home + clear-to-end repaints in place without scrollback spam.
            sys.stdout.write("\x1b[H\x1b[J")
        print(frame)
        frames += 1
        if args.iterations is not None and frames >= args.iterations:
            return 0
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import render_human, render_json, rules_by_family, run_analysis

    if args.list_rules:
        for family, rules in rules_by_family().items():
            print(family)
            for rule in rules:
                scope = f"  [scope: {', '.join(rule.scope)}]" if rule.scope else ""
                print(f"  {rule.rule_id:<24}{rule.summary}{scope}")
        return 0
    result = run_analysis(args.paths, root=args.root)
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_human(result))
    return 0 if result.ok else 1


def _cmd_datasets(args: argparse.Namespace) -> int:
    from repro.data import DATASET_SPECS

    print(f"{'id':<4}{'description':<26}{'domain':<14}{'train':>7}{'test':>7}")
    for spec in DATASET_SPECS.values():
        print(
            f"{spec.key:<4}{spec.description:<26}{spec.domain:<14}"
            f"{spec.train_size:>7}{spec.test_size:>7}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__.split("\n")[0])
    subparsers = parser.add_subparsers(dest="command", required=True)

    world = subparsers.add_parser("world", help="generate or inspect worlds")
    world_sub = world.add_subparsers(dest="world_command", required=True)
    generate = world_sub.add_parser("generate", help="generate a world snapshot")
    generate.add_argument("--entities", type=int, default=60)
    generate.add_argument("--reviews", type=float, default=15.0)
    generate.add_argument("--seed", type=int, default=2021)
    generate.add_argument("--fraud", action="store_true", help="inject fake-review campaigns")
    generate.add_argument("--out", required=True)
    generate.set_defaults(func=_cmd_world_generate)
    show = world_sub.add_parser("show", help="summarise a world snapshot")
    show.add_argument("--path", required=True)
    show.add_argument("--entity", help="print this entity's reviews")
    show.add_argument("--limit", type=int, default=5)
    show.set_defaults(func=_cmd_world_show)

    index = subparsers.add_parser("index", help="build tag indexes")
    index_sub = index.add_subparsers(dest="index_command", required=True)
    build = index_sub.add_parser("build", help="build a subjective tag index")
    build.add_argument("--world", required=True)
    build.add_argument("--out", required=True, help="snapshot directory to write")
    build.add_argument("--tags", nargs="*", help="tags to index (default: the 18 dimensions)")
    build.add_argument("--theta", type=float, default=0.70)
    build.add_argument("--theta-mode", choices=["static", "dynamic"], default="static")
    build.add_argument("--filter-fraud", action="store_true", help="drop suspicious reviews")
    build.set_defaults(func=_cmd_index_build)

    search = subparsers.add_parser("search", help="answer a subjective query")
    search.add_argument("--world", required=True)
    search.add_argument("--index", required=True, help="snapshot directory from `index build`")
    search.add_argument("--top-k", type=int, default=10)
    search.add_argument("--theta", type=float, default=0.60)
    search.add_argument("tags", nargs="+", help='subjective tags, e.g. "delicious food"')
    search.set_defaults(func=_cmd_search)

    serve = subparsers.add_parser("serve", help="run the JSON-over-HTTP serving runtime")
    serve.add_argument("--world", help="world snapshot to serve (default: generate one)")
    serve.add_argument("--entities", type=int, default=60)
    serve.add_argument("--reviews", type=float, default=12.0)
    serve.add_argument("--seed", type=int, default=2021)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8350)
    serve.add_argument("--workers", type=int, default=2)
    serve.add_argument("--max-batch-size", type=int, default=16)
    serve.add_argument("--max-wait-ms", type=float, default=0.0)
    serve.add_argument("--cache-size", type=int, default=4096)
    serve.add_argument("--session-ttl", type=float, default=1800.0)
    serve.add_argument(
        "--snapshot-dir",
        help="warm-start the index from this snapshot directory; on a "
        "missing or corrupt snapshot, cold-build and write a fresh one",
    )
    serve.add_argument(
        "--encoder-precision",
        choices=("float64", "float32"),
        default="float64",
        help="tape-free fused inference precision for utterance extraction "
        "(float64 is bitwise-identical to the training forward)",
    )
    serve.add_argument(
        "--no-trace", action="store_true", help="disable request tracing"
    )
    serve.add_argument(
        "--trace-capacity", type=int, default=256, help="recent traces retained"
    )
    serve.add_argument(
        "--trace-sample",
        type=int,
        default=32,
        help="trace 1 of every N requests (1 = trace everything)",
    )
    serve.add_argument(
        "--slow-ms",
        type=float,
        default=50.0,
        help="slow-exemplar threshold in milliseconds",
    )
    serve.add_argument(
        "--no-collector",
        action="store_true",
        help="disable the background metrics collector (no /debug/timeseries "
        "points, frozen SLO burn rates)",
    )
    serve.add_argument(
        "--collector-interval",
        type=float,
        default=1.0,
        help="collector sampling cadence in seconds",
    )
    serve.add_argument(
        "--collector-retention",
        type=int,
        default=512,
        help="time-series points retained in the ring buffer",
    )
    serve.add_argument(
        "--slo-latency-ms",
        type=float,
        default=100.0,
        help="latency-SLO threshold: 99%% of searches must finish within this",
    )
    # No flags: the benchmark builder reads both and passes them on to
    # SaccsConfig, which accepts only these values.
    serve.set_defaults(func=_cmd_serve, shards=1, lookup_workers=0)

    trace = subparsers.add_parser(
        "trace", help="render span trees from a serving runtime's trace store"
    )
    trace.add_argument(
        "trace_id", nargs="?", help="trace id (omit to list recent + slow traces)"
    )
    trace.add_argument(
        "--url", default="http://127.0.0.1:8350", help="server base URL"
    )
    trace.add_argument(
        "--input", help="render a saved /debug/trace JSON file instead of fetching"
    )
    trace.add_argument(
        "--collapsed",
        action="store_true",
        help="emit collapsed-stack (flamegraph) lines instead of a tree",
    )
    trace.set_defaults(func=_cmd_trace)

    profile = subparsers.add_parser(
        "profile",
        help="merged flamegraph over a serving runtime's trace store",
    )
    profile.add_argument(
        "--url", default="http://127.0.0.1:8350", help="server base URL"
    )
    profile.add_argument(
        "--input",
        help="render a saved /debug/profile payload (or a JSON list of "
        "trace payloads) instead of fetching",
    )
    profile.add_argument(
        "--limit", type=int, help="merge at most this many traces (newest first)"
    )
    profile.add_argument(
        "--slow-only", action="store_true", help="merge only the slow exemplars"
    )
    profile.add_argument(
        "--diff",
        type=int,
        help="diff mode: newest N traces vs the rest of the window "
        "(per-trace-normalised deltas)",
    )
    profile.add_argument(
        "--top", type=int, default=20, help="stacks listed in the rendering"
    )
    profile.add_argument(
        "--json", action="store_true", help="print the raw payload instead"
    )
    profile.set_defaults(func=_cmd_profile)

    top = subparsers.add_parser(
        "top", help="live terminal dashboard for a serving runtime"
    )
    top.add_argument(
        "--url", default="http://127.0.0.1:8350", help="server base URL"
    )
    top.add_argument(
        "--interval", type=float, default=2.0, help="seconds between repaints"
    )
    top.add_argument(
        "--window",
        type=int,
        default=48,
        help="time-series points fetched per frame (sparkline width)",
    )
    top.add_argument(
        "--iterations",
        type=int,
        help="render this many frames then exit (default: until Ctrl-C)",
    )
    top.add_argument(
        "--no-clear",
        action="store_true",
        help="append frames instead of repainting in place",
    )
    top.set_defaults(func=_cmd_top)

    lint = subparsers.add_parser(
        "lint",
        help="static analysis of lock, determinism and kernel invariants",
    )
    lint.add_argument("paths", nargs="*", default=["src"], help="files or directories")
    lint.add_argument("--format", choices=["human", "json"], default="human")
    lint.add_argument(
        "--root", help="directory finding paths are made relative to (default: cwd)"
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    lint.set_defaults(func=_cmd_lint)

    datasets = subparsers.add_parser("datasets", help="list the S1-S4 benchmarks")
    datasets.set_defaults(func=_cmd_datasets)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
