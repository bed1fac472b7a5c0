"""Typed request/response envelopes for the JSON-over-HTTP frontend.

Every wire shape is a dataclass with an explicit ``to_payload`` (responses)
or a validating ``parse_*`` constructor (requests).  Validation failures
raise :class:`ProtocolError`, which carries the HTTP status the frontend
should answer with — handlers never hand-roll error JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.session import Turn
from repro.core.tags import SubjectiveTag

__all__ = [
    "ProtocolError",
    "SearchRequest",
    "SearchResponse",
    "SayRequest",
    "SayResponse",
    "ReindexResponse",
    "error_payload",
]

#: hard ceiling on tags per query — a serving input bound, not a model one.
MAX_TAGS_PER_QUERY = 16


class ProtocolError(ValueError):
    """A client error with the HTTP status + machine-readable code to send."""

    def __init__(self, message: str, status: int = 400, code: str = "bad_request"):
        super().__init__(message)
        self.status = status
        self.code = code


def error_payload(code: str, message: str) -> Dict[str, object]:
    """The uniform error envelope every non-2xx response carries."""
    return {"error": {"code": code, "message": message}}


def _require_mapping(payload: object) -> Mapping:
    if not isinstance(payload, Mapping):
        raise ProtocolError("request body must be a JSON object")
    return payload


def _parse_top_k(payload: Mapping) -> Optional[int]:
    top_k = payload.get("top_k")
    if top_k is None:
        return None
    if not isinstance(top_k, int) or isinstance(top_k, bool) or top_k <= 0:
        raise ProtocolError("top_k must be a positive integer")
    return top_k


@dataclass(frozen=True)
class SearchRequest:
    """``POST /search`` — rank entities for subjective tags or an utterance."""

    tags: Tuple[SubjectiveTag, ...]
    utterance: Optional[str]
    top_k: Optional[int]

    @classmethod
    def parse(cls, payload: object) -> "SearchRequest":
        payload = _require_mapping(payload)
        raw_tags = payload.get("tags")
        utterance = payload.get("utterance")
        if raw_tags is None and utterance is None:
            raise ProtocolError("provide 'tags' (list of strings) or 'utterance' (string)")
        tags: List[SubjectiveTag] = []
        if raw_tags is not None:
            if not isinstance(raw_tags, list) or not raw_tags:
                raise ProtocolError("'tags' must be a non-empty list of strings")
            if len(raw_tags) > MAX_TAGS_PER_QUERY:
                raise ProtocolError(f"at most {MAX_TAGS_PER_QUERY} tags per query")
            for raw in raw_tags:
                if not isinstance(raw, str):
                    raise ProtocolError("'tags' must be a non-empty list of strings")
                try:
                    tags.append(SubjectiveTag.from_text(raw))
                except ValueError as exc:
                    raise ProtocolError(f"unparseable tag {raw!r}: {exc}") from exc
        if utterance is not None and not isinstance(utterance, str):
            raise ProtocolError("'utterance' must be a string")
        if raw_tags is not None and utterance is not None:
            raise ProtocolError("provide either 'tags' or 'utterance', not both")
        if utterance is not None and not utterance.strip():
            raise ProtocolError("'utterance' must be non-empty")
        return cls(tags=tuple(tags), utterance=utterance, top_k=_parse_top_k(payload))


@dataclass(frozen=True)
class SearchResponse:
    """Ranking plus the provenance serving adds (generation, cache, batch)."""

    results: Tuple[Tuple[str, float], ...]
    generation: int
    cached: bool
    batch_size: int
    tags: Tuple[str, ...] = ()

    def to_payload(self) -> Dict[str, object]:
        return {
            "results": [[entity_id, score] for entity_id, score in self.results],
            "generation": self.generation,
            "cached": self.cached,
            "batch_size": self.batch_size,
            "tags": list(self.tags),
        }


@dataclass(frozen=True)
class SayRequest:
    """``POST /session/<id>/say`` — one conversational turn."""

    utterance: str

    @classmethod
    def parse(cls, payload: object) -> "SayRequest":
        payload = _require_mapping(payload)
        utterance = payload.get("utterance")
        if not isinstance(utterance, str):
            raise ProtocolError("'utterance' must be a string")
        return cls(utterance=utterance)


@dataclass(frozen=True)
class SayResponse:
    """A served :class:`~repro.core.session.Turn` plus session bookkeeping."""

    session_id: str
    turn: Turn
    state_summary: str
    generation: int

    def to_payload(self) -> Dict[str, object]:
        return {
            "session_id": self.session_id,
            "utterance": self.turn.utterance,
            "added_tags": [tag.text for tag in self.turn.added_tags],
            "removed_tags": [tag.text for tag in self.turn.removed_tags],
            "slots": dict(self.turn.slots),
            "results": [[entity_id, score] for entity_id, score in self.turn.results],
            "resolved": self.turn.resolved,
            "route": self.turn.route,
            "shift": self.turn.shift,
            "state": self.state_summary,
            "generation": self.generation,
        }


@dataclass(frozen=True)
class ReindexResponse:
    """``POST /admin/reindex`` — the indexing round's outcome."""

    generation: int
    adopted: Tuple[str, ...]
    invalidated_entries: int
    #: whether the round also re-extracted the corpus and rebuilt the index
    #: (always double-buffered, so the payload's older ``background`` key
    #: carries the same value).
    full: bool = False

    def to_payload(self) -> Dict[str, object]:
        return {
            "generation": self.generation,
            "adopted": list(self.adopted),
            "invalidated_entries": self.invalidated_entries,
            "full": self.full,
            "background": self.full,
        }
