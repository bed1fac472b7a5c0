"""Server-side span recording for the traced run (``--trace 1``).

Spans are taken around calls into each layer's public functions, wrapped at
class level from the benchmark's own server entry, so nothing under
``src/`` changes and index rebuilds (which swap instances) stay covered.
Every span stays in memory until the server shuts down and writes them out.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from typing import Callable, Dict, List, Optional, Tuple

from benchmarks.e2e.layers import HANDLER, RUNTIME

__all__ = ["SpanRecorder", "instrument", "traced_handler_factory"]

#: engine stage timings (``ExtractionEngine.timings``) reported per request.
ENGINE_STAGES = ("encode", "decode", "pair")

#: ``count(counts, call_args, result)``: tallies taken from a wrapped call.
Counter = Callable[[Dict[str, int], tuple, object], None]


class SpanRecorder:
    """Thread-aware span list: ``(id, parent, name, thread, start, end)``."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, str, int, float, float]] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Tuple[str, int, int, float]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        return name, span_id, parent, time.perf_counter()

    def end(self, token: Tuple[str, int, int, float]) -> None:
        finished = time.perf_counter()
        name, span_id, parent, started = token
        self._stack().pop()
        # list.append is atomic under the GIL; ids come from one counter.
        self.spans.append((span_id, parent, name, threading.get_ident(), started, finished))

    def timed(self, original: Callable, name: str, count: Optional[Counter] = None):
        """``original`` recording span ``name`` (and ``count`` on its result)."""

        @functools.wraps(original)
        def timed(*args, **kwargs):
            token = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(token)
            if count is not None:
                count(self.counts, args, result)
            return result

        return timed

    def wrap(self, owner: object, attr: str, name: str, count: Optional[Counter] = None) -> None:
        """Replace ``owner.attr`` with a version that records span ``name``."""
        setattr(owner, attr, self.timed(getattr(owner, attr), name, count))


def _count_tag_lists(counts: Dict[str, int], tag_lists) -> None:
    counts["extract.utterances"] += len(tag_lists)
    counts["extract.tags"] += sum(len(tags) for tags in tag_lists)
    counts["extract.zero_tag"] += sum(1 for tags in tag_lists if not tags)


def instrument(recorder: SpanRecorder, runtime) -> Callable[[], Dict[str, float]]:
    """Wrap every layer the served turn crosses; returns an engine-timings delta.

    Classes are taken from the live objects where possible, so a refactor
    that renames a class keeps its layer covered as long as the public
    method survives.
    """
    from repro.conversation.stage import ConversationStage
    from repro.core import filtering

    saccs = runtime.saccs
    runtime_cls = type(runtime)
    for method in ("search", "search_utterance", "say", "reindex"):
        recorder.wrap(runtime_cls, method, RUNTIME)

    store_cls = type(runtime.sessions)
    checkout = store_cls.checkout

    @contextmanager
    def timed_checkout(self, session_id):
        with ExitStack() as stack:
            token = recorder.begin("sessions.checkout_wait")
            try:
                session = stack.enter_context(checkout(self, session_id))
            finally:
                recorder.end(token)
            yield session

    store_cls.checkout = timed_checkout

    recorder.wrap(type(saccs.dialog.recognizer), "parse", "conv.parse")
    recorder.wrap(type(saccs.dialog), "search", "conv.parse")
    recorder.wrap(ConversationStage, "analyze", "conv.analyze")
    recorder.wrap(
        type(saccs.extraction_engine),
        "extract_token_lists",
        "extract",
        lambda counts, args, result: _count_tag_lists(counts, result),
    )
    recorder.wrap(
        type(saccs.extractor),
        "extract",
        "extract",
        lambda counts, args, result: _count_tag_lists(counts, [result]),
    )
    index_cls = type(saccs.index)

    def count_known(counts, args, result):
        counts["index.known"] += 1

    def count_unknown(counts, args, result):
        counts["index.unknown"] += len(args[1])

    recorder.wrap(index_cls, "lookup", "index.lookup", count_known)
    recorder.wrap(index_cls, "lookup_similar_batch", "index.similar", count_unknown)
    # filter_and_rank is a module function imported by name into several
    # modules (the runtime's worker among them): rebind every copy.
    original_rank = filtering.filter_and_rank
    timed_rank = recorder.timed(original_rank, "rank")
    for module in list(sys.modules.values()):
        if getattr(module, "filter_and_rank", None) is original_rank:
            setattr(module, "filter_and_rank", timed_rank)
    recorder.wrap(type(saccs), "prepare_rebuild", "rebuild.prepare")
    recorder.wrap(type(saccs), "commit_rebuild", "rebuild.commit")

    timings = saccs.extraction_engine.timings
    baseline = {stage: timings.seconds(stage) for stage in ENGINE_STAGES}
    return lambda: {
        stage: timings.seconds(stage) - baseline[stage] for stage in ENGINE_STAGES
    }


def traced_handler_factory(recorder: SpanRecorder, make_handler):
    """``make_handler`` replacement whose handler subclass times ``do_POST``."""

    def make_traced_handler(runtime):
        base = make_handler(runtime)

        class BenchHandler(base):
            pass

        recorder.wrap(BenchHandler, "do_POST", HANDLER)
        return BenchHandler

    return make_traced_handler
