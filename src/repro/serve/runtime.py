"""The serving runtime: request queue → worker pool → cache → facade.

:class:`SaccsRuntime` owns one :class:`~repro.core.saccs.Saccs` facade and
turns it into a concurrent service.  Every read — a ``/search`` or a
session turn — takes one path:

1. The request thread turns the request into a tag query.  ``search()``
   has one already; ``search_utterance()`` parses the utterance once
   (:meth:`Saccs.understand`) and, on a subjective turn, extracts its tags
   through the extraction engine outside the facade lock (the engine's
   tagger lock serialises the tagger, as it does for background
   rebuilds).  Objective and chitchat turns carry no tags.  ``say()``
   runs the session's turn (conversation stage, extraction) the same way,
   under only its session's lock, and hands the session's accumulated
   tags and slot-filtered API ids on.
2. The ranking cache (generation-stamped; a reindex invalidates
   deterministically) answers a repeated query; otherwise the query is
   enqueued.
3. **Worker** threads drain the queue.  A free worker takes the oldest
   request and tops the batch up from the queue, up to
   ``max_batch_size`` requests.  By default (``max_wait_ms=0``) it never
   sleeps: a batch is the first request plus whatever else is already
   queued, which under load is what arrived while every worker was busy.
   A positive ``max_wait_ms`` waits that long for stragglers, which a
   lone request pays in full.  The worker then executes the batch under
   the facade lock: the batch's distinct tag queries share one
   :meth:`~repro.core.saccs.Saccs.answer_many` call (duplicate concurrent
   queries are computed once), per-request results are sliced, cached and
   resolved.

The runtime never runs Algorithm 1 itself, and :meth:`Saccs.answer_many`
is its only entry on the read path.  A response's ``generation`` is the
one its ranking was computed (or cached) under.

Equivalence guarantee: because the similarity kernel evaluates small blocks
row-stationary and :meth:`answer_many` keeps per-request semantics,
rankings served through the batched pipeline are **byte-identical** to
sequential :meth:`Saccs.answer_tags` / :meth:`Saccs.answer` /
:meth:`ConversationSession.say` calls on every route — the integration
tests assert this with concurrent clients.

The facade lock serialises index access (the facade mutates shared state:
user tag history, lazy matrices, vocabulary).  Micro-batching is what makes
that serialisation cheap: the N requests that queued behind busy workers
cost one lock round-trip and one index fold instead of N.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.conversation.classify import ROUTE_COUNTERS, ROUTE_SUBJECTIVE
from repro.conversation.stage import ConversationStage, ConversationTables
from repro.core.saccs import IndexingRound, Saccs
from repro.core.session import ConversationSession
from repro.core.extractor import TagExtractor
from repro.core.tags import SubjectiveTag
from repro.obs import tracing as obs
from repro.obs.log import get_logger
from repro.obs.slo import SLOMonitor, SLOSpec, default_slos
from repro.obs.timeseries import MetricsCollector, TimeSeriesStore
from repro.obs.tracing import NullTracer, Tracer
from repro.serve.cache import ServingCache
from repro.serve.metrics import MetricsRegistry
from repro.serve.protocol import ProtocolError, ReindexResponse, SayResponse, SearchResponse
from repro.serve.sessions import SessionStore
from repro.utils.locks import make_lock

__all__ = ["RequestQueueFull", "SaccsRuntime", "ServeConfig"]

_STOP = object()

#: most tag queries the request queue holds.  Each queued query parks the
#: handler thread that sent it, so the bound caps the threads a burst can
#: park.  256 is sixteen full batches at the default ``max_batch_size``;
#: ranking takes well under 1 ms per query on the benchmark (its
#: ``rank.ms``), so a full queue drains in tens of milliseconds and the bound
#: refuses work only when the workers are far behind.  The benchmark keeps
#: at most two requests in flight.
MAX_QUEUED_REQUESTS = 256

_LOG = get_logger("repro.serve.runtime")

#: sleep between full-rebuild work units (entities, index tags).  Each
#: sleep releases the GIL, so racing searches run between units instead of
#: stalling for a full interpreter switch interval.
_REBUILD_PACE_SECONDS = 0.0005


@dataclass
class ServeConfig:
    """Knobs for the serving pipeline."""

    #: most requests a worker takes from the queue into one batch; 1
    #: disables batching (each request its own batch).
    max_batch_size: int = 16
    #: how long a worker waits for stragglers after taking the first
    #: request.  0 never waits: a batch holds what queued while every
    #: worker was busy, and a lone request is not delayed.
    max_wait_ms: float = 0.0
    #: worker threads; each drains the request queue and executes its
    #: batches, so ``start()`` spawns exactly this many.
    workers: int = 2
    #: ranking-cache entries; 0 disables caching.
    cache_size: int = 4096
    #: idle session time-to-live.
    session_ttl_seconds: float = 1800.0
    max_sessions: int = 4096
    #: per-session ranking depth: a post-slice of the facade's ranking, so
    #: it is capped by ``SaccsConfig.top_k``.
    session_top_k: int = 10
    #: how long ``search`` waits for its batch before giving up.
    request_timeout_seconds: float = 30.0
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
        if self.collector_interval_seconds <= 0:
            raise ValueError("collector_interval_seconds must be > 0")
        if self.collector_retention < 1:
            raise ValueError("collector_retention must be >= 1")


class RequestQueueFull(RuntimeError):
    """The request queue holds :data:`MAX_QUEUED_REQUESTS`; answered 503."""


class _Pending:
    """One enqueued tag query: inputs, completion event, outputs."""

    __slots__ = ("tags", "top_k", "api_entity_ids", "event", "results", "error",
                 "generation", "batch_size", "ctx", "enqueued_at")

    def __init__(
        self,
        tags: Tuple[SubjectiveTag, ...],
        top_k: Optional[int],
        api_entity_ids: Optional[Tuple[str, ...]],
    ):
        self.tags = tags
        self.top_k = top_k
        self.api_entity_ids = api_entity_ids
        #: root span of the requesting trace; carried across the queue
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
        #: lexicon-derived conversation tables, shared by every session so
        #: a new session costs only its own salience and context state.
        self._conversation_tables = ConversationTables(saccs.similarity.lexicon)
        self.sessions = SessionStore(
            factory=self._new_session,
            ttl_seconds=self.config.session_ttl_seconds,
            max_sessions=self.config.max_sessions,
        )
        #: serialises every facade touch (index matrices and tag history
        #: are shared and not thread-safe).  Extraction needs no facade
        #: lock: the extraction engine serialises its own tagger.
        self._facade_lock = make_lock("serve.runtime.facade")
        #: serialises start/stop: concurrent callers must not double-spawn
        #: or double-drain the scheduler threads.
        self._lifecycle_lock = make_lock("serve.runtime.lifecycle")
        #: serialises whole reindex operations.  Full rebuilds hold
        #: this (never the facade lock) for the build, so two admins can't
        #: interleave double-buffer builds while searches keep flowing.
        self._reindex_lock = make_lock("serve.runtime.reindex")
        #: sha256 of the snapshot this runtime warm-started from (None when
        #: cold-built), surfaced on /healthz and /metrics.
        self.snapshot_hash: Optional[str] = None
        # Surface the extraction engine's counters (extract.batches,
        # extract.sentences) through this runtime's /metrics.
        saccs.extraction_engine.bind_metrics(self.metrics)
        self._queue: "queue.Queue" = queue.Queue()
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
            self._threads = [
                threading.Thread(
                    target=self._worker_loop,
                    name=f"saccs-worker-{worker_id}",
                    daemon=True,
                )
                for worker_id in range(self.config.workers)
            ]
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
                # Held across stop() on purpose: it only joins the
                # sampler thread, which wakes on its event immediately; the
                # lifecycle lock must cover it so a racing start() cannot
                # respawn the collector mid-teardown.
                self.collector.stop()
            self._running = False
            # Held across put() on purpose: the request queue has no
            # maxsize, so put() is a non-blocking append; holding the
            # lifecycle lock over the sentinels is what makes stop()
            # idempotent against a concurrent start().  One per worker:
            # each worker exits on the sentinel it takes first.
            for _ in self._threads:
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
        self, tags: Sequence[SubjectiveTag], top_k: Optional[int] = None
    ) -> SearchResponse:
        """Rank entities for ``tags`` through the batched pipeline."""
        if not self._running:
            raise RuntimeError("runtime is not started (use `with SaccsRuntime(...)`)")
        self.metrics.incr("requests.search")
        tags = tuple(tags)
        with self.metrics.time("latency.search_seconds"):
            with self.tracer.trace("serve.search", kind="tags", tags=len(tags)):
                return self._answer(tags, None, top_k)

    def search_utterance(self, utterance: str, top_k: Optional[int] = None) -> SearchResponse:
        """Full conversational ``/search``: extract tags, restrict by slots.

        Byte-identical to :meth:`Saccs.answer` on every route: the
        utterance is parsed once by :meth:`Saccs.understand`, a subjective
        turn is extracted here on the request thread, and the resulting
        (tags, API ids) query takes the same cache → queue → worker path as
        :meth:`search`.  Objective and chitchat turns take it with no tags.
        """
        self._require_extractor("utterance searches", "utterances_unavailable")
        self.metrics.incr("requests.search_utterance")
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
                tags: Tuple[SubjectiveTag, ...] = ()
                if route == ROUTE_SUBJECTIVE:
                    # No facade lock: the engine's tagger lock serialises
                    # the tagger against workers' and rebuilds' use of it.
                    with self.metrics.time("latency.extract_seconds"):
                        tags = tuple(
                            self.saccs.extraction_engine.extract_token_lists(
                                [parsed.tokens]
                            )[0]
                        )
                return self._answer(tags, api_ids, top_k)

    def _require_extractor(self, what: str, code: str) -> None:
        """The up-front checks of both utterance routes.

        A 501 ``code`` unless this runtime can extract tags from free text
        (checked before anything is built for the request), then a
        ``RuntimeError`` unless the runtime is started.
        """
        if not isinstance(self.saccs.extractor, TagExtractor):
            raise ProtocolError(
                f"{what} need a neural TagExtractor; this runtime was started "
                "with the oracle extractor, which only answers 'tags' searches",
                status=501,
                code=code,
            )
        if not self._running:
            raise RuntimeError("runtime is not started (use `with SaccsRuntime(...)`)")

    def _answer(
        self,
        tags: Tuple[SubjectiveTag, ...],
        api_entity_ids: Optional[Tuple[str, ...]],
        top_k: Optional[int],
    ) -> SearchResponse:
        """The ranking cache, else one queued request for the workers."""
        tag_texts = tuple(tag.text for tag in tags)
        # Snapshot the generation once: the cache probe and the response
        # stamp must agree, or a reindex landing between two reads would
        # label old-generation results as new.
        generation = self.generation
        cached = self.cache.ranking_for(
            tag_texts, top_k, generation, api_entity_ids=api_entity_ids
        )
        if cached is not None:
            return SearchResponse(
                results=cached,
                generation=generation,
                cached=True,
                batch_size=0,
                tags=tag_texts,
            )
        # Checked apart from the put below, so handlers racing past the check
        # together can overshoot the bound by their number.  That is fine for
        # shedding load; a hard bound (a maxsize queue) would make stop()'s
        # sentinel puts block on a full queue.
        if self._queue.qsize() >= MAX_QUEUED_REQUESTS:
            raise RequestQueueFull(
                f"request queue full ({MAX_QUEUED_REQUESTS} queued searches); retry later"
            )
        pending = _Pending(tags, top_k, api_entity_ids)
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
            tags=tag_texts,
        )

    # --------------------------------------------------------------- sessions

    def _new_session(self) -> ConversationSession:
        # Sessions share the runtime's metrics registry so per-turn routing
        # and coref decisions land on /metrics as conv.* series.
        stage = ConversationStage(tables=self._conversation_tables, metrics=self.metrics)
        return ConversationSession(self.saccs, top_k=self.config.session_top_k, stage=stage)

    def say(self, session_id: str, utterance: str) -> SayResponse:
        """One conversational turn against the session's accumulated state.

        The turn runs under its session's lock only; its ranking takes the
        same cache → queue → worker path as :meth:`search`, so the response
        carries the generation that ranking was computed under.
        """
        self._require_extractor("sessions", "sessions_unavailable")
        self.metrics.incr("requests.say")
        ranked: List[SearchResponse] = []

        def answer(tags, api_ids):
            ranked.append(self._answer(tags, api_ids, self.config.session_top_k))
            return list(ranked[-1].results)

        with self.metrics.time("latency.say_seconds"):
            with self.tracer.trace("serve.say", session=session_id):
                with self.sessions.checkout(session_id) as session:
                    turn = session.say(utterance, answer=answer)
                    summary = session.state_summary()
        return SayResponse(
            session_id=session_id,
            turn=turn,
            state_summary=summary,
            # A reset turn ranks nothing; it reports the live generation.
            generation=ranked[-1].generation if ranked else self.generation,
        )

    # ------------------------------------------------------------------ admin

    def reindex(self, full: bool = False) -> ReindexResponse:
        """Fold the user tag history into the index; bump the generation.

        ``full=True`` first re-extracts the corpus and rebuilds the whole
        index *double-buffered* (:meth:`_rebuild`): the replacement is
        built while searches keep hitting the live index, and only the
        pointer swap plus the history fold take the facade lock.  The
        extraction engine's content-hash memo makes the re-extraction
        incremental — only new or edited reviews are re-tagged (an unchanged
        corpus adds nothing to ``extract.sentences``).  The caller
        blocks until the swap lands (the response needs the new generation).
        """
        self.metrics.incr("requests.reindex")
        with self.metrics.time("latency.reindex_seconds"):
            if full:
                round_ = self._rebuild()
            else:
                with self._facade_lock:
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
            full=full,
        )
        return ReindexResponse(
            generation=round_.generation,
            adopted=tuple(tag.text for tag in round_.added),
            invalidated_entries=invalidated,
            full=full,
        )

    def _rebuild(self) -> IndexingRound:
        """Zero-downtime full reindex: build off to the side, swap atomically.

        Protocol (lock order is always facade-inside-reindex, never nested
        the other way):

        1. under the facade lock, snapshot the indexed tag list;
        2. **without** the facade lock, extract the corpus and build the
           replacement index (:meth:`Saccs.prepare_rebuild`) — searches
           keep draining against the live buffer the whole time;
        3. under the facade lock, swap the index pointer, fold the user
           tags that accumulated during the build, bump the generation
           (:meth:`Saccs.commit_rebuild`) — a pointer assignment plus a
           few tag adds, so the p99 of racing searches stays bounded.

        Searches can never observe a half-built index: the replacement is
        unreachable until the swap, and the swap happens under the same
        lock every worker reads the index and generation under.

        Step 2 is *paced*: a short sleep between work units hands the GIL
        to serving threads, trading rebuild wall time for search tail
        latency (:data:`_REBUILD_PACE_SECONDS`).
        """
        with self._reindex_lock:
            with self._facade_lock:
                indexed_tags = list(self.saccs.index.tags)
            with obs.span("index.rebuild"):
                # Held across the prepare on purpose: the reindex lock exists
                # precisely to serialise whole rebuilds; the search path never
                # takes it, so the long prepare stalls only other admins while
                # the facade lock (which searches do take) stays free.
                prepared = self.saccs.prepare_rebuild(
                    indexed_tags=indexed_tags, pace=lambda: time.sleep(_REBUILD_PACE_SECONDS)
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

    def health(self) -> Dict[str, object]:
        return {
            "status": "ok" if self._running else "stopped",
            "generation": self.generation,
            "index_tags": len(self.saccs.index),
            # sha256 of the snapshot this index warm-started from (null when
            # cold-built) — lets operators confirm which artifact is live.
            "snapshot": self.snapshot_hash,
            "sessions": len(self.sessions),
            "queue_depth": self._queue.qsize(),
            # which fused inference precision utterance extraction runs at
            # (serving caches are keyed per generation, never per precision,
            # so operators need this visible when comparing deployments).
            "encoder_precision": self.saccs.extraction_engine.precision,
        }

    def metrics_snapshot(self) -> Dict[str, object]:
        snapshot = self.metrics.snapshot()
        snapshot["generation"] = self.generation
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
        # Imported here, like build_span_tree in trace_payload: only the
        # debug endpoints aggregate or render traces, so serving never
        # loads them.
        from repro.obs.profile import diff_profiles, merge_traces, profile_from_store

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
        from repro.obs.render import build_span_tree

        return {"trace": trace, "tree": build_span_tree(trace)}

    # -------------------------------------------------------------- scheduler

    def _worker_loop(self) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            try:
                self._execute_batch(batch)
            except BaseException as exc:  # resolve waiters, keep serving
                self.metrics.incr("errors.batch")
                for pending in batch:
                    if not pending.event.is_set():
                        pending.reject(exc)

    def _next_batch(self) -> Optional[List[_Pending]]:
        """The oldest queued request plus what can top it up; None on stop."""
        item = self._queue.get()
        if item is _STOP:
            return None
        batch = [item]
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
                # Another worker's sentinel: put it back so each worker
                # still takes exactly one, and none is left for a restart.
                self._queue.put(_STOP)
                break
            batch.append(extra)
        return batch

    def _execute_batch(self, batch: List[_Pending]) -> None:
        """Run one micro-batch under the facade lock.

        Distinct (tags, api-restriction) queries share one
        :meth:`Saccs.answer_many` call; duplicates are computed once and
        every request receives results bit-identical to a sequential facade
        call.  Per-request ``top_k`` is a post-slice so it cannot perturb
        scores.

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
