"""Tiny wall-clock timer used by benchmarks and training loops."""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from repro.obs import tracing as _tracing
from repro.utils.locks import make_lock

__all__ = ["Timer", "StageTimings"]


class Timer:
    """Context-manager stopwatch.

    Re-entry is tolerated — each ``__enter__`` restarts the clock — but an
    ``__exit__`` without a matching ``__enter__`` raises (a real error, not
    an ``assert`` that ``python -O`` would strip).

    >>> with Timer() as t:
    ...     pass
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self, label: str = ""):
        self.label = label
        self.start: Optional[float] = None
        self.elapsed: float = 0.0

    def __enter__(self) -> "Timer":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self.start is None:
            raise RuntimeError("Timer.__exit__ without a matching __enter__")
        self.elapsed = time.perf_counter() - self.start
        self.start = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Timer({self.label!r}, elapsed={self.elapsed:.3f}s)"


class StageTimings:
    """Named wall-clock spans accumulated across a multi-stage pipeline.

    The extraction engine wraps its ingest stages (encode / decode / pair /
    register) in :meth:`span` blocks; :meth:`as_dict` exports the stage
    shares.  Recording is lock-protected — concurrent ingests and utterance
    batches report into one instance.

    With ``span_prefix`` set this doubles as a thin compatibility shim over
    :mod:`repro.obs` spans: every :meth:`add` additionally records a
    ``<prefix><name>`` child span into whatever trace is active in the
    calling context (a no-op when untraced), so legacy stage timings show
    up inside request span trees without touching the instrumented code.

    >>> spans = StageTimings()
    >>> with spans.span("encode"):
    ...     pass
    >>> spans.as_dict()["encode"]["calls"]
    1
    """

    def __init__(self, span_prefix: Optional[str] = None):
        self.span_prefix = span_prefix
        self._lock = make_lock("utils.timings")
        self._seconds: Dict[str, float] = {}
        self._calls: Dict[str, int] = {}

    def add(self, name: str, seconds: float) -> None:
        """Fold ``seconds`` into stage ``name`` (created at 0 on first use)."""
        with self._lock:
            self._seconds[name] = self._seconds.get(name, 0.0) + float(seconds)
            self._calls[name] = self._calls.get(name, 0) + 1
        if self.span_prefix is not None:
            _tracing.record(self.span_prefix + name, float(seconds))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Context manager adding the block's elapsed time to stage ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def seconds(self, name: str) -> float:
        with self._lock:
            return self._seconds.get(name, 0.0)

    def reset(self) -> None:
        with self._lock:
            self._seconds.clear()
            self._calls.clear()

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """JSON-serialisable ``{stage: {seconds, calls}}`` snapshot."""
        with self._lock:
            return {
                name: {"seconds": self._seconds[name], "calls": self._calls[name]}
                for name in sorted(self._seconds)
            }
