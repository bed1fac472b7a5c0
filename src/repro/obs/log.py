"""Structured JSON logging with trace/span correlation.

Every record is one JSON object per line with sorted keys, stamped with the
active trace and span ids when a trace is live in the calling context, so a
grep for a trace id surfaces both its span tree (``repro trace``) and every
log line emitted on its behalf.  Library code must log through here rather
than ``print()``.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from typing import Any, Dict, Optional, TextIO

from repro.obs import tracing
from repro.utils.locks import make_lock

__all__ = ["StructuredLogger", "get_logger", "set_default_stream"]

_LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}

#: Single process-wide emit lock so concurrent workers never interleave
#: partial lines on the shared stream.
_EMIT_LOCK = make_lock("obs.log.emit")

_DEFAULT_STREAM: Optional[TextIO] = None

_REGISTRY_LOCK = make_lock("obs.log.registry")
_LOGGERS: Dict[str, "StructuredLogger"] = {}


def set_default_stream(stream: Optional[TextIO]) -> None:
    """Redirect loggers that did not pin a stream (``None`` → stderr)."""
    global _DEFAULT_STREAM
    _DEFAULT_STREAM = stream


class StructuredLogger:
    """Emit one JSON object per record onto a text stream."""

    __slots__ = ("name", "stream", "clock", "level")

    def __init__(
        self,
        name: str,
        stream: Optional[TextIO] = None,
        clock=time.time,
        level: str = "info",
    ) -> None:
        if level not in _LEVELS:
            raise ValueError(f"unknown log level {level!r}")
        self.name = name
        self.stream = stream
        self.clock = clock
        self.level = level

    def log(self, level: str, message: str, **fields: Any) -> None:
        if _LEVELS[level] < _LEVELS[self.level]:
            return
        record: Dict[str, Any] = {
            "ts": round(self.clock(), 6),
            "level": level,
            "logger": self.name,
            "message": message,
        }
        active = tracing.current_span()
        if active is not None:
            record["trace_id"] = active.trace_id
            record["span_id"] = active.span_id
        record.update(fields)
        line = json.dumps(record, sort_keys=True, default=repr)
        stream = self.stream
        if stream is None:
            stream = _DEFAULT_STREAM if _DEFAULT_STREAM is not None else sys.stderr
        with _EMIT_LOCK:
            stream.write(line + "\n")
            if hasattr(stream, "flush"):
                stream.flush()

    def debug(self, message: str, **fields: Any) -> None:
        self.log("debug", message, **fields)

    def info(self, message: str, **fields: Any) -> None:
        self.log("info", message, **fields)

    def warning(self, message: str, **fields: Any) -> None:
        self.log("warning", message, **fields)

    def error(self, message: str, **fields: Any) -> None:
        self.log("error", message, **fields)


def get_logger(name: str, **kwargs: Any) -> StructuredLogger:
    """Process-wide logger by name; kwargs build an uncached instance."""
    if kwargs:
        return StructuredLogger(name, **kwargs)
    with _REGISTRY_LOCK:
        logger = _LOGGERS.get(name)
        if logger is None:
            logger = StructuredLogger(name)
            _LOGGERS[name] = logger
        return logger
