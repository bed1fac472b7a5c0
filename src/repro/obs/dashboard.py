"""`repro top` frame rendering: the live terminal dashboard, minus the I/O.

Pure functions from debug-endpoint payloads (``/healthz``,
``/debug/timeseries``, ``/debug/slo``) to one text frame, so the CLI loop
is just poll → render → repaint and tests exercise every layout branch
with synthetic payloads — no server, no terminal.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

__all__ = ["render_dashboard", "sparkline"]

_SPARK_GLYPHS = "▁▂▃▄▅▆▇█"

#: histogram series shown in the per-stage latency table, display order.
_STAGE_SERIES = (
    ("latency.search_seconds", "search"),
    ("latency.extract_seconds", "extract"),
    ("latency.execute_seconds", "execute"),
    ("latency.say_seconds", "say"),
    ("latency.reindex_seconds", "reindex"),
    ("collector.sample_seconds", "collector"),
)

_STATE_MARK = {"ok": "·", "warn": "▲", "page": "■"}


def sparkline(values: Sequence[float], width: int = 24) -> str:
    """ASCII-art trend of ``values`` (newest kept when over ``width``).

    Scaled to the window's own max; an all-zero or empty window renders as
    flat baseline glyphs so columns stay aligned across repaints.
    """
    kept = [max(0.0, float(value)) for value in values][-width:]
    if not kept:
        return ""
    peak = max(kept)
    if peak <= 0:
        return _SPARK_GLYPHS[0] * len(kept)
    top = len(_SPARK_GLYPHS) - 1
    return "".join(
        _SPARK_GLYPHS[min(top, int(value / peak * top + 0.5))] for value in kept
    )


def _series(points: Sequence[Dict[str, Any]], *path: str) -> List[float]:
    """Extract one nested numeric series (missing → 0.0) across points."""
    values = []
    for point in points:
        node: Any = point
        for key in path:
            node = node.get(key, {}) if isinstance(node, dict) else {}
        values.append(float(node) if isinstance(node, (int, float)) else 0.0)
    return values


def _fmt_ms(seconds: Optional[float]) -> str:
    return f"{seconds * 1000.0:8.2f}" if isinstance(seconds, (int, float)) else "       –"


def render_dashboard(
    health: Optional[Dict[str, Any]],
    timeseries: Optional[Dict[str, Any]],
    slo: Optional[Dict[str, Any]],
    width: int = 78,
) -> str:
    """One `repro top` frame from the three debug payloads.

    Any payload may be ``None`` (endpoint unreachable / feature disabled);
    the frame says so instead of dropping the section, because a dashboard
    that silently hides a dead endpoint is how outages go unnoticed.
    """
    lines: List[str] = []
    rule = "─" * width

    # ---- header: index identity ------------------------------------------
    if health is None:
        lines.append("saccs  (healthz unreachable)")
    else:
        lines.append(
            f"saccs  status={health.get('status', '?')}  "
            f"generation={health.get('generation', '?')}  "
            f"index_tags={health.get('index_tags', '?')}  "
            f"sessions={health.get('sessions', '?')}  "
            f"queue={health.get('queue_depth', '?')}"
        )
    lines.append(rule)

    points = (timeseries or {}).get("points", [])
    latest = points[-1] if points else None

    # ---- throughput -------------------------------------------------------
    if latest is None:
        lines.append("throughput: (no collector samples yet)")
    else:
        lines.append("throughput (req/s)            now     trend")
        for counter, label in (
            ("requests.search", "search"),
            ("requests.search_utterance", "utterance"),
            ("requests.say", "say"),
        ):
            trend = _series(points, "rates", counter)
            if not any(trend):
                continue
            lines.append(f"  {label:<24} {trend[-1]:8.1f}   {sparkline(trend)}")
        ratio_bases = sorted(latest.get("ratios", {}))
        if ratio_bases:
            lines.append("cache hit ratio               now     trend")
            for base in ratio_bases:
                trend = _series(points, "ratios", base)
                lines.append(
                    f"  {base:<24} {trend[-1] * 100.0:7.1f}%   {sparkline(trend)}"
                )

        # ---- per-stage latency -------------------------------------------
        stage_rows = [
            (name, label)
            for name, label in _STAGE_SERIES
            if any(name in point.get("histograms", {}) for point in points)
        ]
        if stage_rows:
            lines.append("latency (ms)               p50       p99     p99 trend")
            for name, label in stage_rows:
                hist = latest.get("histograms", {}).get(name, {})
                trend = _series(points, "histograms", name, "p99")
                lines.append(
                    f"  {label:<20} {_fmt_ms(hist.get('p50'))}  "
                    f"{_fmt_ms(hist.get('p99'))}     {sparkline(trend)}"
                )
    lines.append(rule)

    # ---- SLOs -------------------------------------------------------------
    if slo is None or not slo.get("slos"):
        lines.append("slo: (monitoring disabled)")
    else:
        lines.append("slo                 state   fast burn   slow burn   budget left")
        for item in slo["slos"]:
            mark = _STATE_MARK.get(item.get("state", "ok"), "?")
            lines.append(
                f"  {item.get('name', '?'):<17} {mark} {item.get('state', '?'):<5} "
                f"{item.get('fast_burn', 0.0):9.2f}x "
                f"{item.get('slow_burn', 0.0):10.2f}x "
                f"{item.get('budget_remaining_frac', 0.0) * 100.0:10.1f}%"
            )
    return "\n".join(lines)
