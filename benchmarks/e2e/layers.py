"""Per-layer attribution of the served turn from the server's span list.

A span is ``(id, parent, name, thread, start, end)``; ``parent`` is the id
of the enclosing span on the same thread, or -1.  A span's self time is
its duration minus the durations of its same-thread children.

The table covers every request the traced run sent.  With ``N`` requests
and ``L`` their mean client latency (request written → body read):

* ``http.transport`` = ``L`` minus the mean ``http.handler`` span: socket,
  kernel, request-line parsing and the client's own parsing;
* ``http.handler``, and every named layer, = total self time / ``N``;
* ``runtime.wait`` = the runtime calls' self time minus the duration of
  the worker-side spans (roots on threads that are not handler threads),
  over ``N``: queueing, the batcher's wait and facade-lock waits.

The rows sum to ``L`` by construction; what the check catches is a span
that overlaps its parent or a residual that goes negative, either of which
means the instrumentation no longer matches the code path.

No ``repro`` import here: the tests exercise this on synthetic spans.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = [
    "HANDLER",
    "LAYER_SPANS",
    "ROWS",
    "RUNTIME",
    "Span",
    "layer_table",
    "render_table",
    "self_times",
]

Span = Tuple[int, int, str, int, float, float]

HANDLER = "http.handler"
RUNTIME = "runtime"

#: named layers: span name -> per-layer metric name.
LAYER_SPANS: Dict[str, str] = {
    "sessions.checkout_wait": "sessions.checkout_wait_ms",
    "conv.parse": "conv.parse_ms",
    "conv.analyze": "conv.analyze_ms",
    "extract": "extract.ms_per_req",
    "index.lookup": "index.lookup_ms",
    "index.similar": "index.similar_ms",
    "rank": "rank.ms",
    "rebuild.prepare": "rebuild.prepare_ms",
    "rebuild.commit": "rebuild.commit_ms",
}

#: table rows in print order: row name -> per-layer metric name.
ROWS: Dict[str, str] = {
    "http.transport": "http.transport_ms",
    HANDLER: "http.handler_ms",
    "runtime.wait": "runtime.wait_ms",
    **LAYER_SPANS,
}

#: float slack for "no negative self time" (seconds / milliseconds).
_EPS_S = 1e-9
_EPS_MS = 1e-6


def _duration(span: Span) -> float:
    return span[5] - span[4]


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> self time (seconds); raises on a cross-thread parent."""
    spans = list(spans)
    by_id = {span[0]: span for span in spans}
    children: Dict[int, float] = defaultdict(float)
    for span in spans:
        parent_id = span[1]
        if parent_id < 0:
            continue
        parent = by_id.get(parent_id)
        if parent is None:
            raise ValueError(f"span {span[2]!r} names missing parent {parent_id}")
        if parent[3] != span[3]:
            raise ValueError(f"span {span[2]!r} and its parent are on different threads")
        children[parent_id] += _duration(span)
    return {span[0]: _duration(span) - children[span[0]] for span in spans}


def layer_table(
    spans: Sequence[Span], latencies_ms: Sequence[float]
) -> Tuple[Dict[str, float], float]:
    """``({row: ms per request}, mean latency ms)``; rows sum to the mean.

    Raises ``ValueError`` when the spans cannot account for the requests:
    a handler count that differs from ``len(latencies_ms)``, an unknown
    span name, or a negative self time or residual.
    """
    count = len(latencies_ms)
    if count == 0:
        raise ValueError("no requests to attribute")
    known = {HANDLER, RUNTIME, *LAYER_SPANS}
    for span in spans:
        if span[2] not in known:
            raise ValueError(f"unknown span name {span[2]!r}")
    handlers = [span for span in spans if span[2] == HANDLER]
    if len(handlers) != count:
        raise ValueError(
            f"{len(handlers)} handler spans for {count} client requests"
        )
    selfs = self_times(spans)
    negative = [span[2] for span in spans if selfs[span[0]] < -_EPS_S]
    if negative:
        raise ValueError(f"negative self time in {sorted(set(negative))}")
    totals: Dict[str, float] = defaultdict(float)
    worker = 0.0
    for span in spans:
        totals[span[2]] += selfs[span[0]]
        if span[1] < 0 and span[2] != HANDLER:
            worker += _duration(span)
    mean = sum(latencies_ms) / count
    per_request = 1000.0 / count
    rows: Dict[str, float] = {
        "http.transport": mean - sum(_duration(s) for s in handlers) * per_request,
        HANDLER: totals[HANDLER] * per_request,
        "runtime.wait": (totals[RUNTIME] - worker) * per_request,
    }
    for name in LAYER_SPANS:
        rows[name] = totals[name] * per_request
    negative_rows = [name for name, value in rows.items() if value < -_EPS_MS]
    if negative_rows:
        raise ValueError(f"negative residual in {negative_rows}: {rows}")
    if abs(sum(rows.values()) - mean) > _EPS_MS * max(1.0, mean):
        raise ValueError(f"layers sum to {sum(rows.values())} ms, mean is {mean} ms")
    return rows, mean


def render_table(rows: Dict[str, float], mean_ms: float) -> List[str]:
    """Printable lines: one per layer, ms per request and share of the mean."""
    lines = [f"  {'layer':<24}{'ms/req':>10}{'share':>9}"]
    for name, value in rows.items():
        share = value / mean_ms if mean_ms else 0.0
        lines.append(f"  {name:<24}{value:>10.3f}{share * 100:>8.1f}%")
    lines.append(f"  {'= mean latency':<24}{mean_ms:>10.3f}{100.0:>8.1f}%")
    return lines
