"""Deterministic request tracing: spans, tracers, context propagation.

The serving stack answers "why was *this* request slow?" with per-request
span trees.  Design constraints, in order:

* **Zero cost when off.**  The default tracer is :class:`NullTracer`; the
  module-level :func:`span` / :func:`record` / :func:`annotate` helpers do a
  single ``ContextVar.get`` and bail with a shared stateless no-op when no
  trace is active, so instrumented hot paths pay one dict-free branch.
* **Deterministic ids.**  Trace ids come from a counter behind the tracer's
  lock (``t000001``, ``t000002``, ...), span ids from a per-trace counter.
  No wallclock, no global RNG — the clock is injectable and defaults to the
  monotonic ``time.perf_counter`` (timestamps are durations-only data; ids
  and ordering never depend on it).
* **Batch fan-out.**  A serving worker folds many queued requests into one
  batch, so "the current span" is really a *group*: the context variable
  holds a tuple of :class:`ActiveSpan` members, one per traced request in
  the batch.  :func:`span` measures the work once and records a child into
  every member trace with that member's parent id.  A single request is the
  one-member special case.
* **Thread hand-offs are explicit.**  The request queue → worker hand-off
  uses :func:`scope` (the worker re-activates the group from the queued
  requests' captured roots); executor fan-out must use
  ``contextvars.copy_context()`` — one copy per submitted task, made in the
  submitting thread.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextvars import ContextVar
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.store import TraceStore
from repro.utils.locks import make_lock

__all__ = [
    "ActiveSpan",
    "NullTracer",
    "Tracer",
    "annotate",
    "current_group",
    "current_span",
    "record",
    "scope",
    "span",
]

#: The active span group for this logical context.  ``None`` means untraced.
_CURRENT: ContextVar[Optional[Tuple["ActiveSpan", ...]]] = ContextVar(
    "repro_obs_current", default=None
)


class _Noop:
    """Shared stateless sentinel for every untraced context manager."""

    __slots__ = ()

    def __enter__(self) -> "_Noop":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, **attributes: Any) -> "_Noop":
        return self


_NOOP = _Noop()


class _TraceBuilder:
    """Mutable accumulator for one trace; lock-safe across worker threads."""

    __slots__ = ("trace_id", "clock", "_lock", "_spans", "_next_span", "_closed")

    def __init__(self, trace_id: str, clock) -> None:
        self.trace_id = trace_id
        self.clock = clock
        self._lock = make_lock("obs.trace_builder")
        self._spans: List[Dict[str, Any]] = []
        self._next_span = 0
        self._closed = False

    def start_span(
        self,
        name: str,
        parent_id: Optional[int],
        attributes: Optional[Dict[str, Any]] = None,
        start: Optional[float] = None,
    ) -> int:
        if start is None:
            start = self.clock()
        with self._lock:
            if self._closed:
                return -1
            self._next_span += 1
            self._spans.append(
                {
                    "span_id": self._next_span,
                    "parent_id": parent_id,
                    "name": name,
                    "start": start,
                    "end": None,
                    "attributes": dict(attributes) if attributes else {},
                }
            )
            return self._next_span

    def end_span(self, span_id: int, end: Optional[float] = None) -> None:
        if span_id < 0:
            return
        if end is None:
            end = self.clock()
        with self._lock:
            if self._closed:
                return
            self._spans[span_id - 1]["end"] = end

    def add_span(
        self,
        name: str,
        parent_id: Optional[int],
        start: float,
        end: float,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record a span whose duration is already known (timing shims)."""
        with self._lock:
            if self._closed:
                return
            self._next_span += 1
            self._spans.append(
                {
                    "span_id": self._next_span,
                    "parent_id": parent_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "attributes": dict(attributes) if attributes else {},
                }
            )

    def set_attributes(self, span_id: int, attributes: Dict[str, Any]) -> None:
        if span_id < 0:
            return
        with self._lock:
            if self._closed:
                return
            self._spans[span_id - 1]["attributes"].update(attributes)

    def finalize(self) -> Dict[str, Any]:
        """Close the builder and return the trace payload.

        Late writers (a worker resolving after a request timeout) become
        no-ops; the payload they missed is already in the store.  The span
        dicts are handed over rather than copied — the builder is closed,
        so nothing mutates them afterwards.
        """
        with self._lock:
            self._closed = True
            root = self._spans[0]
            root_end = root["end"] if root["end"] is not None else self.clock()
            root["end"] = root_end
            for raw in self._spans:
                end = raw["end"]
                if end is None:
                    end = root_end
                    raw["end"] = end
                raw["duration_seconds"] = max(0.0, end - raw["start"])
            return {
                "trace_id": self.trace_id,
                "name": root["name"],
                "start": root["start"],
                "duration_seconds": root["duration_seconds"],
                "spans": self._spans,
            }


class ActiveSpan:
    """Handle onto one open span inside one trace."""

    __slots__ = ("builder", "span_id")

    def __init__(self, builder: _TraceBuilder, span_id: int) -> None:
        self.builder = builder
        self.span_id = span_id

    @property
    def trace_id(self) -> str:
        return self.builder.trace_id

    def now(self) -> float:
        return self.builder.clock()

    def set(self, **attributes: Any) -> "ActiveSpan":
        self.builder.set_attributes(self.span_id, attributes)
        return self

    def add_child(self, name: str, start: float, end: float, **attributes: Any) -> None:
        """Record an already-measured child span (e.g. enqueue wait)."""
        self.builder.add_span(name, self.span_id, start, end, attributes)


class _TraceHandle:
    """Context manager for a root trace; owns contextvar activation."""

    __slots__ = ("tracer", "name", "attributes", "_root", "_token")

    def __init__(self, tracer: "Tracer", name: str, attributes: Dict[str, Any]) -> None:
        self.tracer = tracer
        self.name = name
        self.attributes = attributes
        self._root: Optional[ActiveSpan] = None
        self._token = None

    def __enter__(self) -> ActiveSpan:
        self._root = self.tracer.begin(self.name, **self.attributes)
        self._token = _CURRENT.set((self._root,))
        return self._root

    def __exit__(self, exc_type, exc, tb) -> bool:
        _CURRENT.reset(self._token)
        error = exc_type.__name__ if exc_type is not None else None
        self.tracer.finish(self._root, error=error)
        return False


class Tracer:
    """Factory for traces; publishes finished traces to store/metrics/log."""

    enabled = True

    def __init__(
        self,
        store: Optional[TraceStore] = None,
        clock=time.perf_counter,
        metrics=None,
        logger=None,
        sample_every: int = 1,
    ) -> None:
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        self.store = store if store is not None else TraceStore()
        self.clock = clock
        self.metrics = metrics
        self.logger = logger
        self.sample_every = sample_every
        self._lock = make_lock("obs.tracer")
        self._trace_counter = 0
        #: request counter for head-based sampling.  itertools.count is
        #: atomic under the GIL, so the hot non-sampled path never touches
        #: the tracer lock (16 client threads all pay this check per
        #: request; a lock here is measurable contention at >10k rps).
        self._requests = itertools.count()
        #: span name → interned "stage.<name>_seconds" metric key (the fold
        #: runs per span per request; repeated f-string builds add up).
        self._stage_keys: Dict[str, str] = {}

    def bind_metrics(self, metrics) -> None:
        """Fold per-stage histograms into a MetricsRegistry on finish."""
        self.metrics = metrics

    def trace(self, name: str, **attributes: Any):
        """Open a root span and activate it in the current context.

        With ``sample_every=N`` only the first of every N requests records
        a trace (head-based, counter-derived — deterministic for a given
        request order); the rest take the shared no-op path, which is how
        the serving default keeps tracing inside its overhead budget.
        """
        if self.sample_every > 1:
            if next(self._requests) % self.sample_every != 0:
                return _NOOP
        return _TraceHandle(self, name, attributes)

    def begin(self, name: str, **attributes: Any) -> ActiveSpan:
        """Manual root creation (no contextvar) — the queue hand-off seam."""
        with self._lock:
            self._trace_counter += 1
            trace_id = f"t{self._trace_counter:06d}"
        builder = _TraceBuilder(trace_id, self.clock)
        return ActiveSpan(builder, builder.start_span(name, None, attributes))

    def finish(self, root: ActiveSpan, error: Optional[str] = None) -> Dict[str, Any]:
        """Close the root span, publish the trace, return its payload."""
        if error is not None:
            root.set(error=error)
        root.builder.end_span(root.span_id)
        payload = root.builder.finalize()
        self.store.add(payload)
        if self.metrics is not None:
            keys = self._stage_keys
            for item in payload["spans"]:
                name = item["name"]
                key = keys.get(name)
                if key is None:
                    # dict item writes are GIL-atomic; a racing duplicate
                    # build just interns the same string twice.
                    key = keys[name] = f"stage.{name}_seconds"
                # repro: disable=metric-name-literal — span names come from
                # literal `span(...)` call sites, so the interned stage.* key
                # set is bounded by the code's span vocabulary, not by input.
                self.metrics.observe(key, item["duration_seconds"])
        if self.logger is not None and payload.get("slow"):
            self.logger.warning(
                "slow trace",
                trace_id=payload["trace_id"],
                root=payload["name"],
                duration_ms=round(payload["duration_seconds"] * 1000.0, 3),
                spans=len(payload["spans"]),
            )
        return payload


class NullTracer:
    """Default tracer: every operation is a shared no-op (zero-cost-off)."""

    enabled = False
    store = None
    metrics = None
    logger = None

    def bind_metrics(self, metrics) -> None:
        return None

    def trace(self, name: str, **attributes: Any) -> _Noop:
        return _NOOP

    def begin(self, name: str, **attributes: Any) -> None:
        return None

    def finish(self, root, error: Optional[str] = None) -> None:
        return None


class _GroupSpan:
    """Child span fanned out across every member of the active group.

    The work is measured once (one clock read at enter, one at exit); each
    member trace receives a child record with its own parent id but the
    shared timestamps.
    """

    __slots__ = ("group", "name", "attributes", "_children", "_token")

    def __init__(
        self, group: Tuple[ActiveSpan, ...], name: str, attributes: Dict[str, Any]
    ) -> None:
        self.group = group
        self.name = name
        self.attributes = attributes
        self._children: Tuple[ActiveSpan, ...] = ()
        self._token = None

    def __enter__(self) -> ActiveSpan:
        start = self.group[0].builder.clock()
        self._children = tuple(
            ActiveSpan(
                member.builder,
                member.builder.start_span(
                    self.name, member.span_id, self.attributes, start=start
                ),
            )
            for member in self.group
        )
        self._token = _CURRENT.set(self._children)
        return self._children[0]

    def __exit__(self, exc_type, exc, tb) -> bool:
        _CURRENT.reset(self._token)
        end = self.group[0].builder.clock()
        for child in self._children:
            if exc_type is not None:
                child.set(error=exc_type.__name__)
            child.builder.end_span(child.span_id, end)
        return False


class _Scope:
    """Re-activate a span group in another thread (request queue → worker)."""

    __slots__ = ("members", "_token")

    def __init__(self, members: Tuple[ActiveSpan, ...]) -> None:
        self.members = members
        self._token = None

    def __enter__(self) -> Tuple[ActiveSpan, ...]:
        self._token = _CURRENT.set(self.members)
        return self.members

    def __exit__(self, exc_type, exc, tb) -> bool:
        _CURRENT.reset(self._token)
        return False


def current_span() -> Optional[ActiveSpan]:
    """First member of the active group, or ``None`` when untraced."""
    group = _CURRENT.get()
    return group[0] if group else None


def current_group() -> Tuple[ActiveSpan, ...]:
    return _CURRENT.get() or ()


def span(name: str, **attributes: Any):
    """Open a child span under every active trace; no-op when untraced."""
    group = _CURRENT.get()
    if not group:
        return _NOOP
    return _GroupSpan(group, name, attributes)


def scope(members: Sequence[Optional[ActiveSpan]]):
    """Activate the given spans as the current group (worker threads)."""
    present = tuple(member for member in members if member is not None)
    if not present:
        return _NOOP
    return _Scope(present)


def record(name: str, seconds: float, **attributes: Any) -> None:
    """Record an already-measured child span ending now (timing shims)."""
    group = _CURRENT.get()
    if not group:
        return
    end = group[0].builder.clock()
    start = end - max(0.0, seconds)
    for member in group:
        member.builder.add_span(name, member.span_id, start, end, attributes)


def annotate(**attributes: Any) -> None:
    """Attach attributes to every span in the active group; no-op untraced."""
    group = _CURRENT.get()
    if not group:
        return
    for member in group:
        member.set(**attributes)
