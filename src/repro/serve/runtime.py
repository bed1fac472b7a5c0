"""The serving runtime: queue → micro-batcher → worker pool → cache → facade.

:class:`SaccsRuntime` owns one :class:`~repro.core.saccs.Saccs` facade and
turns it into a concurrent service.  The pipeline:

1. ``search()`` checks the ranking cache (generation-stamped; a reindex
   invalidates deterministically) and otherwise enqueues the request.
2. A **batcher** thread drains the queue into micro-batches — up to
   ``max_batch_size`` requests, waiting at most ``max_wait_ms`` for
   stragglers once the first request arrives (a batch size of 1 never
   waits).
3. **Worker** threads execute whole batches under the facade lock: the
   batch's distinct tag queries share one
   :meth:`~repro.core.saccs.Saccs.answer_many` call (duplicate concurrent
   queries are computed once), per-request results are sliced, cached and
   resolved.

The runtime never runs Algorithm 1 itself.  An utterance is parsed once by
:meth:`Saccs.understand`; subjective turns ride the queue to extraction and
:meth:`Saccs.answer_many`, objective and chitchat turns rank their API list
through the same method without extraction — exactly what
:meth:`Saccs.answer` does.

Equivalence guarantee: because the similarity kernel evaluates small blocks
row-stationary and :meth:`answer_many` keeps per-request semantics,
rankings served through the batched pipeline are **byte-identical** to
sequential :meth:`Saccs.answer_tags` / :meth:`Saccs.answer` calls on every
route — the integration tests assert this with concurrent clients.

The facade lock serialises index access (the facade mutates shared state:
user tag history, lazy matrices, vocabulary).  Micro-batching is what makes
that serialisation cheap: N concurrent requests cost one lock round-trip,
one scheduler wake-up and one index fold instead of N.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.conversation.classify import ROUTE_COUNTERS, ROUTE_SUBJECTIVE
from repro.conversation.stage import ConversationStage
from repro.core.saccs import IndexingRound, Saccs
from repro.core.session import ConversationSession
from repro.core.extractor import TagExtractor
from repro.core.tags import SubjectiveTag
from repro.obs import tracing as obs
from repro.obs.log import get_logger
from repro.obs.profile import diff_profiles, merge_traces, profile_from_store
from repro.obs.render import build_span_tree
from repro.obs.slo import SLOMonitor, SLOSpec, default_slos
from repro.obs.timeseries import MetricsCollector, TimeSeriesStore
from repro.obs.tracing import NullTracer, Tracer
from repro.serve.cache import ServingCache
from repro.serve.metrics import MetricsRegistry
from repro.serve.protocol import ProtocolError, ReindexResponse, SearchResponse
from repro.serve.sessions import SessionStore
from repro.utils.locks import make_lock, make_rlock

__all__ = ["ServeConfig", "SaccsRuntime"]

_STOP = object()

_LOG = get_logger("repro.serve.runtime")


@dataclass
class ServeConfig:
    """Knobs for the serving pipeline."""

    #: micro-batch ceiling; 1 disables batching (each request its own batch).
    max_batch_size: int = 16
    #: how long the batcher waits for stragglers after the first request.
    max_wait_ms: float = 2.0
    #: worker threads executing batches.
    workers: int = 2
    #: entries per cache level; 0 disables caching.
    cache_size: int = 4096
    #: idle session time-to-live.
    session_ttl_seconds: float = 1800.0
    max_sessions: int = 4096
    #: per-session ranking depth (mirrors ConversationSession's default).
    session_top_k: int = 10
    #: how long ``search`` waits for its batch before giving up.
    request_timeout_seconds: float = 30.0
    #: sleep between background-rebuild work units (entities, index tags).
    #: Each sleep releases the GIL, so racing searches run between units
    #: instead of stalling for a full interpreter switch interval; 0
    #: disables pacing and lets the rebuild run flat out.
    rebuild_pace_seconds: float = 0.0005
    #: background metrics collector (continuous telemetry for /debug/timeseries,
    #: SLO burn rates and `repro top`); False leaves /metrics point-in-time only.
    collector_enabled: bool = True
    #: sampling cadence of the collector thread.
    collector_interval_seconds: float = 1.0
    #: time-series points retained (ring buffer; ~8.5 min at 1s cadence).
    collector_retention: int = 512

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if self.rebuild_pace_seconds < 0:
            raise ValueError("rebuild_pace_seconds must be >= 0")
        if self.collector_interval_seconds <= 0:
            raise ValueError("collector_interval_seconds must be > 0")
        if self.collector_retention < 1:
            raise ValueError("collector_retention must be >= 1")


class _Pending:
    """One enqueued search: inputs, completion event, outputs.

    Two kinds share the queue: tag queries (``tags`` set on enqueue) and
    utterance queries (``tags is None`` until the worker extracts them —
    ``utterance``/``tokens`` carry the input, so every utterance in a
    micro-batch shares one bucketed encoder forward)."""

    __slots__ = ("tags", "top_k", "api_entity_ids", "event", "results", "error",
                 "generation", "batch_size", "utterance", "tokens", "ctx",
                 "enqueued_at")

    def __init__(
        self,
        tags: Optional[Tuple[SubjectiveTag, ...]],
        top_k: Optional[int],
        api_entity_ids: Optional[Tuple[str, ...]],
        utterance: Optional[str] = None,
        tokens: Optional[Tuple[str, ...]] = None,
    ):
        self.tags = tags
        self.top_k = top_k
        self.api_entity_ids = api_entity_ids
        self.utterance = utterance
        self.tokens = tokens
        #: root span of the requesting trace; carried across the batcher
        #: hand-off so the worker can attribute its stages to this request.
        self.ctx: Optional[obs.ActiveSpan] = None
        self.enqueued_at = 0.0
        self.event = threading.Event()
        self.results: Optional[List[Tuple[str, float]]] = None
        self.error: Optional[BaseException] = None
        self.generation = -1
        self.batch_size = 0

    def resolve(self, results, generation: int, batch_size: int) -> None:
        self.results = results
        self.generation = generation
        self.batch_size = batch_size
        self.event.set()

    def reject(self, error: BaseException) -> None:
        self.error = error
        self.event.set()


class SaccsRuntime:
    """Concurrent front door over a built :class:`Saccs` facade."""

    def __init__(
        self,
        saccs: Saccs,
        config: Optional[ServeConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        slos: Optional[Sequence[SLOSpec]] = None,
    ):
        self.saccs = saccs
        self.config = config or ServeConfig()
        self.metrics = metrics or MetricsRegistry()
        # Tracing is opt-in: the default NullTracer keeps every obs call on
        # the hot path a single no-op branch (zero-cost-when-off).
        self.tracer = tracer if tracer is not None else NullTracer()
        if self.tracer.enabled and self.tracer.metrics is None:
            self.tracer.bind_metrics(self.metrics)
        self.cache = ServingCache(self.config.cache_size, self.metrics)
        self.sessions = SessionStore(
            factory=self._new_session,
            ttl_seconds=self.config.session_ttl_seconds,
            max_sessions=self.config.max_sessions,
        )
        #: serialises every facade touch (index matrices, tag history,
        #: extractor state are shared and not thread-safe).
        self._facade_lock = make_rlock("serve.runtime.facade")
        #: serialises start/stop: concurrent callers must not double-spawn
        #: or double-drain the scheduler threads.
        self._lifecycle_lock = make_lock("serve.runtime.lifecycle")
        #: serialises whole reindex operations.  Background rebuilds hold
        #: this (never the facade lock) for the build, so two admins can't
        #: interleave double-buffer builds while searches keep flowing.
        self._reindex_lock = make_lock("serve.runtime.reindex")
        #: sha256 of the snapshot this runtime warm-started from (None when
        #: cold-built), surfaced on /healthz and /metrics.
        self.snapshot_hash: Optional[str] = None
        # Surface the extraction engine's cache hit/miss counters through
        # this runtime's /metrics (extract.cache.{hit,miss} → ratio rollup).
        saccs.extraction_engine.bind_metrics(self.metrics)
        self._queue: "queue.Queue" = queue.Queue()
        self._batches: "queue.Queue" = queue.Queue()
        self._threads: List[threading.Thread] = []
        self._running = False
        # Continuous telemetry: the SLO monitor exists regardless (its specs
        # describe targets, not machinery) but only the collector thread
        # feeds it, so --no-collector also freezes burn-rate accounting.
        self.slo = SLOMonitor(default_slos() if slos is None else tuple(slos))
        self.timeseries = TimeSeriesStore(self.config.collector_retention)
        self.collector: Optional[MetricsCollector] = None
        if self.config.collector_enabled:
            self.collector = MetricsCollector(
                self.metrics,
                interval_seconds=self.config.collector_interval_seconds,
                store=self.timeseries,
                slo=self.slo,
            )

    # -------------------------------------------------------------- lifecycle

    def start(self) -> "SaccsRuntime":
        with self._lifecycle_lock:
            if self._running:
                return self
            self._running = True
            batcher = threading.Thread(
                target=self._batcher_loop, name="saccs-batcher", daemon=True
            )
            self._threads = [batcher]
            for worker_id in range(self.config.workers):
                self._threads.append(
                    threading.Thread(
                        target=self._worker_loop,
                        name=f"saccs-worker-{worker_id}",
                        daemon=True,
                    )
                )
            for thread in self._threads:
                thread.start()
            if self.collector is not None:
                self.collector.start()
        return self

    def stop(self) -> None:
        with self._lifecycle_lock:
            if not self._running:
                return
            if self.collector is not None:
                # repro: disable=lock-held-blocking — stop() only joins the
                # sampler thread, which wakes on its event immediately; the
                # lifecycle lock must cover it so a racing start() cannot
                # respawn the collector mid-teardown.
                self.collector.stop()
            self._running = False
            # repro: disable=lock-held-blocking — the request queue is
            # unbounded, so put() is a non-blocking append; holding the
            # lifecycle lock over the sentinel is what makes stop()
            # idempotent against a concurrent start().
            self._queue.put(_STOP)
            threads, self._threads = self._threads, []
        # Join outside the lock: a wedged worker must not block a concurrent
        # start/stop caller for the full drain timeout.
        for thread in threads:
            thread.join(timeout=5.0)

    def __enter__(self) -> "SaccsRuntime":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ----------------------------------------------------------------- search

    @property
    def generation(self) -> int:
        return self.saccs.index_generation

    def search(
        self,
        tags: Sequence[SubjectiveTag],
        top_k: Optional[int] = None,
        _api_entity_ids: Optional[Tuple[str, ...]] = None,
    ) -> SearchResponse:
        """Rank entities for ``tags`` through the batched pipeline."""
        if not self._running:
            raise RuntimeError("runtime is not started (use `with SaccsRuntime(...)`)")
        self.metrics.incr("requests.search")
        tags = tuple(tags)
        tag_texts = tuple(tag.text for tag in tags)
        with self.metrics.time("latency.search_seconds"):
            with self.tracer.trace("serve.search", kind="tags", tags=len(tags)):
                # Snapshot the generation once: the cache probe and the
                # response stamp must agree, or a reindex landing between
                # two reads would label old-generation results as new.
                generation = self.generation
                cached = self.cache.ranking_for(
                    tag_texts, top_k, generation, api_entity_ids=_api_entity_ids
                )
                if cached is not None:
                    return SearchResponse(
                        results=cached,
                        generation=generation,
                        cached=True,
                        batch_size=0,
                        tags=tag_texts,
                    )
                pending = _Pending(tags, top_k, _api_entity_ids)
                return self._enqueue_and_wait(pending)

    def _enqueue_and_wait(self, pending: _Pending) -> SearchResponse:
        """Queue one request for the batcher and block on its resolution."""
        active = obs.current_span()
        if active is not None:
            pending.ctx = active
            pending.enqueued_at = active.now()
        self._queue.put(pending)
        if not pending.event.wait(self.config.request_timeout_seconds):
            self.metrics.incr("errors.timeout")
            raise TimeoutError("search request timed out waiting for a worker")
        if pending.error is not None:
            raise pending.error
        return SearchResponse(
            results=tuple(pending.results),
            generation=pending.generation,
            cached=False,
            batch_size=pending.batch_size,
            tags=tuple(tag.text for tag in pending.tags),
        )

    def search_utterance(self, utterance: str, top_k: Optional[int] = None) -> SearchResponse:
        """Full conversational ``/search``: extract tags, restrict by slots.

        Byte-identical to :meth:`Saccs.answer` on every route: the
        utterance is parsed once by :meth:`Saccs.understand`, and the
        extracted tags are cached per (utterance, generation).  On a tags
        cache miss a subjective *utterance itself* rides the micro-batch
        queue: the worker extracts every utterance in the batch through the
        extraction engine's bucketed path, so concurrent ``/search``
        utterances share one encoder forward instead of tagging one by one.
        """
        if not isinstance(self.saccs.extractor, TagExtractor):
            raise ProtocolError(
                "utterance search needs a neural TagExtractor; this runtime "
                "was started with the oracle extractor — query with 'tags'",
                status=501,
                code="utterances_unavailable",
            )
        self.metrics.incr("requests.search_utterance")
        cached = self.cache.tags_for(utterance, self.generation)
        if cached is not None:
            tags, api_ids = cached
            return self.search(tags, top_k=top_k, _api_entity_ids=api_ids)
        if not self._running:
            raise RuntimeError("runtime is not started (use `with SaccsRuntime(...)`)")
        with self.metrics.time("latency.search_seconds"):
            with self.tracer.trace("serve.search", kind="utterance"):
                # Parsing and the objective-slot API probe are read-only over
                # the dialog shim, so they stay outside the facade lock.
                with obs.span("serve.parse"):
                    parsed, api_ids = self.saccs.understand(utterance)
                with obs.span("conv.classify") as sp:
                    route = parsed.route
                    sp.set(route=route)
                self.metrics.incr(ROUTE_COUNTERS[route])
                if route != ROUTE_SUBJECTIVE:
                    # No subjective content to extract: chitchat and
                    # objective turns never reach the encoder — their API
                    # list ranked with no tag sets is the whole answer.
                    with self._facade_lock:
                        generation = self.saccs.index_generation
                        ranked = self.saccs.answer_many([()], [api_ids])[0]
                    if top_k is not None:
                        ranked = ranked[:top_k]
                    return SearchResponse(
                        results=tuple(ranked),
                        generation=generation,
                        cached=False,
                        batch_size=0,
                        tags=(),
                    )
                pending = _Pending(
                    None, top_k, api_ids, utterance=utterance, tokens=tuple(parsed.tokens)
                )
                return self._enqueue_and_wait(pending)

    # --------------------------------------------------------------- sessions

    def _new_session(self) -> ConversationSession:
        try:
            # Sessions share the runtime's metrics registry so per-turn
            # routing and coref decisions land on /metrics as conv.* series.
            stage = ConversationStage(
                lexicon=self.saccs.similarity.lexicon, metrics=self.metrics
            )
            return ConversationSession(
                self.saccs, top_k=self.config.session_top_k, stage=stage
            )
        except TypeError as exc:
            raise ProtocolError(
                "sessions need a neural TagExtractor; this runtime was "
                "started with the oracle extractor",
                status=501,
                code="sessions_unavailable",
            ) from exc

    def say(self, session_id: str, utterance: str):
        """One conversational turn against the session's accumulated state."""
        self.metrics.incr("requests.say")
        with self.metrics.time("latency.say_seconds"):
            with self.tracer.trace("serve.say", session=session_id):
                with self.sessions.checkout(session_id) as session:
                    with self._facade_lock:
                        turn = session.say(utterance)
                    summary = session.state_summary()
        return turn, summary

    # ------------------------------------------------------------------ admin

    def reindex(self, full: bool = False, background: bool = False) -> ReindexResponse:
        """Fold the user tag history into the index; bump the generation.

        ``full=True`` additionally re-extracts the corpus and rebuilds the
        whole index first (:meth:`Saccs.rebuild_index`) — the path for
        corpus edits.  The extraction engine's content-hash cache makes it
        incremental: only new or edited reviews are re-tagged, and the
        hit/miss counters land in this runtime's ``/metrics``.

        ``background=True`` runs the rebuild *double-buffered*: the
        replacement index is extracted and built while searches keep hitting
        the live one, and only the pointer swap + history fold take the
        facade lock — zero downtime instead of blocking the world.  The
        caller still blocks until the swap lands (the response needs the new
        generation); "background" refers to what the search path observes.
        """
        self.metrics.incr("requests.reindex")
        with self.metrics.time("latency.reindex_seconds"):
            if background:
                round_ = self._background_rebuild()
            else:
                with self._facade_lock:
                    if full:
                        # repro: disable=lock-held-blocking — foreground
                        # reindex is the *explicitly requested* stop-the-world
                        # path (admin asked for synchronous semantics); the
                        # non-stalling variant is background=True.
                        self.saccs.rebuild_index()
                        self.metrics.incr("index.swap")
                    round_: IndexingRound = self.saccs.run_indexing_round()
            # Sweep strictly after the swap bumped the generation — see
            # ServingCache.sweep for why the other order leaks entries.
            invalidated = self.cache.sweep(round_.generation)
        self.metrics.incr("index.rounds")
        _LOG.info(
            "reindex complete",
            generation=round_.generation,
            adopted=len(round_.added),
            invalidated_entries=invalidated,
            full=full or background,
            background=background,
        )
        return ReindexResponse(
            generation=round_.generation,
            adopted=tuple(tag.text for tag in round_.added),
            invalidated_entries=invalidated,
            full=full or background,
            background=background,
        )

    def _background_rebuild(self) -> IndexingRound:
        """Zero-downtime full reindex: build off to the side, swap atomically.

        Protocol (lock order is always facade-inside-reindex, never nested
        the other way):

        1. under the facade lock, snapshot the indexed tag list;
        2. **without** the facade lock, extract the corpus and build the
           replacement shards (:meth:`Saccs.prepare_rebuild`) — searches
           keep draining against the live buffer the whole time;
        3. under the facade lock, swap the index pointer, fold the user
           tags that accumulated during the build, bump the generation
           (:meth:`Saccs.commit_rebuild`) — a pointer assignment plus a
           few tag adds, so the p99 of racing searches stays bounded.

        Searches can never observe a half-built shard: the replacement is
        unreachable until the swap, and the swap happens under the same
        lock every worker reads the index and generation under.

        Step 2 is *paced*: a short sleep between work units hands the GIL
        to serving threads, trading rebuild wall time for search tail
        latency (``ServeConfig.rebuild_pace_seconds``).
        """
        pace_seconds = self.config.rebuild_pace_seconds
        pace = (lambda: time.sleep(pace_seconds)) if pace_seconds > 0 else None
        with self._reindex_lock:
            with self._facade_lock:
                indexed_tags = list(self.saccs.index.tags)
            with obs.span("index.rebuild", background=True):
                # repro: disable=lock-held-blocking — the reindex lock exists
                # precisely to serialise whole rebuilds; the search path never
                # takes it, so the long prepare stalls only other admins while
                # the facade lock (which searches do take) stays free.
                prepared = self.saccs.prepare_rebuild(
                    indexed_tags=indexed_tags, pace=pace
                )
            with self._facade_lock:
                round_ = self.saccs.commit_rebuild(prepared)
            self.metrics.incr("index.swap")
            return round_

    def note_snapshot_load(self, snapshot_sha256: str, load_seconds: float) -> None:
        """Record a warm start (who blessed the index, and how fast it came up)."""
        self.snapshot_hash = snapshot_sha256
        self.metrics.incr("snapshot.loads")
        self.metrics.observe("snapshot.load_seconds", load_seconds)
        _LOG.info(
            "index warm-started from snapshot",
            snapshot=snapshot_sha256,
            load_seconds=round(load_seconds, 3),
        )

    @property
    def shards(self) -> int:
        """Entity shard count of the live index (1 for the plain index)."""
        return getattr(self.saccs.index, "num_shards", 1)

    def health(self) -> Dict[str, object]:
        return {
            "status": "ok" if self._running else "stopped",
            "generation": self.generation,
            "index_generation": self.generation,
            "index_tags": len(self.saccs.index),
            "shards": self.shards,
            # sha256 of the snapshot this index warm-started from (null when
            # cold-built) — lets operators confirm which artifact is live.
            "snapshot": self.snapshot_hash,
            "sessions": len(self.sessions),
            "queue_depth": self._queue.qsize(),
            # which fused inference precision utterance extraction runs at
            # (serving caches are keyed per generation, never per precision,
            # so operators need this visible when comparing deployments).
            "encoder_precision": self.saccs.extraction_engine.config.encoder_precision,
        }

    def metrics_snapshot(self) -> Dict[str, object]:
        snapshot = self.metrics.snapshot()
        snapshot["generation"] = self.generation
        snapshot["index_generation"] = self.generation
        snapshot["shards"] = self.shards
        snapshot["snapshot"] = self.snapshot_hash
        snapshot["sessions"] = len(self.sessions)
        return snapshot

    # ------------------------------------------------------------------ debug

    def traces_snapshot(
        self, limit: int = 20, slow_only: bool = False
    ) -> Dict[str, object]:
        """Recent traces + slow exemplars for ``/debug/traces``.

        ``slow_only`` drops the recent ring from the payload — operators
        tailing exemplars during an incident don't want the healthy
        traffic interleaved.
        """
        store = self.tracer.store
        if store is None:
            return {"enabled": False, "recent": [], "slow": []}
        snapshot = store.snapshot(limit)
        snapshot["enabled"] = True
        if slow_only:
            snapshot["recent"] = []
        return snapshot

    def timeseries_snapshot(self, limit: Optional[int] = None) -> Dict[str, object]:
        """Collector ring for ``/debug/timeseries`` (newest ``limit`` points)."""
        payload = self.timeseries.snapshot(limit)
        payload["enabled"] = self.collector is not None
        payload["interval_seconds"] = self.config.collector_interval_seconds
        return payload

    def slo_snapshot(self) -> Dict[str, object]:
        """Burn rates, budgets and alert states for ``/debug/slo``."""
        payload = self.slo.snapshot()
        payload["collector_enabled"] = self.collector is not None
        return payload

    def profile_payload(
        self,
        limit: Optional[int] = None,
        slow_only: bool = False,
        diff: Optional[int] = None,
    ) -> Dict[str, object]:
        """Aggregate flamegraph over the trace store for ``/debug/profile``.

        ``diff`` splits the recent window in two — the newest ``diff``
        traces versus the ones before them — and returns the
        per-trace-normalised delta alongside both halves, which localises
        "it just got slower" to a stage without leaving the endpoint.
        """
        store = self.tracer.store
        if store is None:
            raise ProtocolError(
                "profiling needs tracing enabled on this runtime (start the "
                "server without --no-trace)",
                status=404,
                code="tracing_disabled",
            )
        if diff is None:
            payload = profile_from_store(store, limit=limit, slow_only=slow_only)
            payload["enabled"] = True
            return payload
        window = store.recent(limit)  # newest first
        after, before = window[:diff], window[diff:]
        before_profile = merge_traces(before)
        after_profile = merge_traces(after)
        return {
            "enabled": True,
            "diff": diff_profiles(before_profile, after_profile),
            "before": before_profile,
            "after": after_profile,
        }

    def trace_payload(self, trace_id: str) -> Dict[str, object]:
        """Full span tree for ``/debug/trace/<id>``; 404s map to codes."""
        store = self.tracer.store
        if store is None:
            raise ProtocolError(
                "tracing is disabled on this runtime (start the server "
                "without --no-trace)",
                status=404,
                code="tracing_disabled",
            )
        trace = store.get(trace_id)
        if trace is None:
            raise ProtocolError(
                f"no trace {trace_id!r} in the store (it may have been "
                "evicted; slow traces are retained longest)",
                status=404,
                code="trace_not_found",
            )
        return {"trace": trace, "tree": build_span_tree(trace)}

    # -------------------------------------------------------------- scheduler

    def _batcher_loop(self) -> None:
        """Drain the request queue into micro-batches."""
        while True:
            item = self._queue.get()
            if item is _STOP:
                for _ in range(self.config.workers):
                    self._batches.put(_STOP)
                return
            batch = [item]
            if self.config.max_batch_size > 1:
                deadline = None
                while len(batch) < self.config.max_batch_size:
                    try:
                        if deadline is None:
                            # First top-up attempt: take whatever is already
                            # queued without blocking, then start the clock.
                            extra = self._queue.get_nowait()
                        else:
                            remaining = deadline - time.monotonic()
                            if remaining <= 0:
                                break
                            extra = self._queue.get(timeout=remaining)
                    except queue.Empty:
                        if deadline is None and self.config.max_wait_ms > 0:
                            deadline = time.monotonic() + self.config.max_wait_ms / 1000.0
                            continue
                        break
                    if extra is _STOP:
                        self._queue.put(_STOP)
                        break
                    batch.append(extra)
            self._batches.put(batch)

    def _worker_loop(self) -> None:
        while True:
            batch = self._batches.get()
            if batch is _STOP:
                return
            try:
                self._execute_batch(batch)
            except BaseException as exc:  # resolve waiters, keep serving
                self.metrics.incr("errors.batch")
                for pending in batch:
                    if not pending.event.is_set():
                        pending.reject(exc)

    def _execute_batch(self, batch: List[_Pending]) -> None:
        """Run one micro-batch under the facade lock.

        Utterance requests are tagged first — every distinct utterance in
        the batch goes through one bucketed
        :meth:`~repro.core.extraction_engine.ExtractionEngine.extract_token_lists`
        call (shared encoder forwards, batch Viterbi), and the extracted
        tags are cached per (utterance, generation).  Then distinct (tags,
        api-restriction) queries share one :meth:`Saccs.answer_many` call;
        duplicates are computed once and every request receives results
        bit-identical to a sequential facade call.  Per-request ``top_k``
        is a post-slice so it cannot perturb scores.

        Tracing: the worker re-activates every traced member's root span as
        one group (``obs.scope``), so each stage below fans a child span
        out to every member trace.  All spans are closed *before* the
        resolve loop wakes the request threads — a woken requester
        finalizes its trace immediately, and a span still open at that
        point would be lost.
        """
        self.metrics.observe("batch.size", len(batch))
        roots = [pending.ctx for pending in batch if pending.ctx is not None]
        if roots:
            picked_up = roots[0].now()
            for pending in batch:
                if pending.ctx is not None:
                    pending.ctx.add_child(
                        "serve.enqueue_wait", pending.enqueued_at, picked_up
                    )
        with obs.scope(roots):
            with obs.span("serve.batch", batch_size=len(batch)):
                untagged = [pending for pending in batch if pending.tags is None]
                if untagged:
                    by_utterance: Dict[str, List[_Pending]] = {}
                    for pending in untagged:
                        by_utterance.setdefault(pending.utterance, []).append(pending)
                    utterances = list(by_utterance)
                    with self.metrics.time("latency.extract_seconds"):
                        with self._facade_lock:
                            tag_generation = self.saccs.index_generation
                            tag_lists = self.saccs.extraction_engine.extract_token_lists(
                                [list(by_utterance[u][0].tokens) for u in utterances]
                            )
                    for utterance, extracted in zip(utterances, tag_lists):
                        waiting = by_utterance[utterance]
                        for pending in waiting:
                            pending.tags = tuple(extracted)
                        self.cache.put_tags(
                            utterance,
                            tag_generation,
                            (tuple(extracted), waiting[0].api_entity_ids),
                        )
                distinct: Dict[Tuple, int] = {}
                order: List[_Pending] = []
                for pending in batch:
                    key = (pending.tags, pending.api_entity_ids)
                    if key not in distinct:
                        distinct[key] = len(order)
                        order.append(pending)
                with self.metrics.time("latency.execute_seconds"):
                    with self._facade_lock:
                        generation = self.saccs.index_generation
                        computed = self.saccs.answer_many(
                            [pending.tags for pending in order],
                            [pending.api_entity_ids for pending in order],
                        )
        for pending in batch:
            ranked = computed[distinct[(pending.tags, pending.api_entity_ids)]]
            results = ranked[: pending.top_k] if pending.top_k is not None else ranked
            self.cache.put_ranking(
                tuple(tag.text for tag in pending.tags),
                pending.top_k,
                generation,
                tuple(results),
                api_entity_ids=pending.api_entity_ids,
            )
            pending.resolve(results, generation, len(batch))
