"""Task-oriented dialog shim: intent recognition, slot filling, search API.

SACCS assumes "the underlying dialog system is already equipped with intent
recognition and slot filling" (Section 3); this module provides that
substrate.  Utterance understanding itself lives in
:mod:`repro.conversation.classify`: :class:`DialogSystem` parses with a
:class:`~repro.conversation.classify.QueryClassifier`, so intent, slots and
the subjectivity route all come from one parse.  The search API filters
the entity catalog by the *objective* slots only, returning results ordered
by star rating (what Yelp would do), oblivious to any subjective phrases in
the utterance.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.conversation.classify import ParsedUtterance, QueryClassifier
from repro.data.schema import Entity

__all__ = ["ParsedUtterance", "SearchApi", "DialogSystem"]


class SearchApi:
    """The objective search service (the Yelp/TripAdvisor stand-in).

    Filters by slots and orders by stars; knows nothing about subjectivity.
    """

    def __init__(self, entities: Sequence[Entity]):
        self.entities = list(entities)

    def search(self, slots: Dict[str, str]) -> List[Entity]:
        """Entities matching every provided slot, best-rated first."""
        results = [
            entity
            for entity in self.entities
            if ("cuisine" not in slots or entity.cuisine == slots["cuisine"])
            and ("city" not in slots or entity.city == slots["city"])
        ]
        results.sort(key=lambda e: (-e.stars, e.entity_id))
        return results


class DialogSystem:
    """Query classifier + search API, bundled (Algorithm 1's ``search_api``)."""

    def __init__(self, entities: Sequence[Entity]):
        self.recognizer = QueryClassifier()
        self.api = SearchApi(entities)

    def search(self, utterance: str) -> List[Entity]:
        """Parse the utterance and return objectively-filtered entities."""
        return self.results(self.recognizer.parse(utterance))

    def results(self, parsed: ParsedUtterance) -> List[Entity]:
        """Objectively-filtered entities for an already parsed utterance."""
        if parsed.intent != "searchRestaurant":
            return []
        return self.api.search(parsed.slots)
