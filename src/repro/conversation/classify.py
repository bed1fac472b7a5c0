"""Query classification: the subjective / objective / chitchat router.

The paper's setting assumes every turn reaches the neural extractor, but in
real conversations most turns carry no subjective content — greetings,
objective constraints ("italian, in lyon"), meta-talk.  Running a BERT
forward on those burns encoder budget for nothing.  :class:`QueryClassifier`
labels each utterance with one of three routes using only the domain
lexicon + POS substrate (no model call):

* ``subjective`` — the utterance mentions at least one opinion expression
  from the domain lexicon ("romantic", "watered down"); it must go through
  tag extraction.
* ``objective`` — no opinion, but the utterance engages the domain: a
  search marker ("restaurant", "place"), an objective slot (cuisine/city)
  or an aspect surface ("parking", "menu").  The search API and the
  session's accumulated state can answer it without the extractor.
* ``chitchat`` — none of the above; nothing here for ranking to use.

This module also owns intent recognition and slot filling, so there is
exactly one utterance-understanding code path: :meth:`QueryClassifier.parse`
returns a :class:`ParsedUtterance` carrying intent, slots *and* route, and
the dialog shim (``repro.core.dialog.DialogSystem.recognizer``) is a
:class:`QueryClassifier`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.text.lexicon import DomainLexicon, restaurant_lexicon
from repro.text.pos import PosLexicon
from repro.text.tokenize import word_tokenize

__all__ = [
    "ROUTE_CHITCHAT",
    "ROUTE_COUNTERS",
    "ROUTE_OBJECTIVE",
    "ROUTE_SUBJECTIVE",
    "ROUTES",
    "ParsedUtterance",
    "QueryClassifier",
]

ROUTE_SUBJECTIVE = "subjective"
ROUTE_OBJECTIVE = "objective"
ROUTE_CHITCHAT = "chitchat"
#: every route label, in the fixed order metrics/benches report them.
ROUTES = (ROUTE_CHITCHAT, ROUTE_OBJECTIVE, ROUTE_SUBJECTIVE)

#: closed counter-name set for per-route metrics — call sites index this
#: instead of f-string-ing the route so metric cardinality stays bounded
#: by construction (and the metric-name-literal lint rule can see it).
ROUTE_COUNTERS = {route: "conv.route." + route for route in ROUTES}

#: tokens that signal a search-type intent (the dialog shim's contract).
SEARCH_MARKERS = frozenset(
    {
        "restaurant", "restaurants", "eat", "dinner", "lunch", "place", "table",
        "food", "reservation", "hotel", "stay",
    }
)
KNOWN_CUISINES = frozenset(
    {"italian", "french", "japanese", "mexican", "indian", "chinese", "thai"}
)
KNOWN_CITIES = frozenset(
    {"montreal", "lyon", "melbourne", "paris", "tokyo", "trento", "sydney"}
)

#: longest lexicon phrase (opinion or aspect surface) the n-gram scan tries.
_MAX_PHRASE_TOKENS = 4


@dataclass
class ParsedUtterance:
    """Intent, objective slots and route extracted from a user utterance."""

    text: str
    tokens: List[str]
    intent: str
    slots: Dict[str, str] = field(default_factory=dict)
    #: subjectivity route (``ROUTE_*``); defaulted so legacy constructor
    #: calls that predate routing keep working.
    route: str = ROUTE_CHITCHAT


class QueryClassifier:
    """Lexicon-driven utterance understanding: intent, slots and route.

    Deterministic by construction — phrase tables are built once from the
    domain lexicon, scans are greedy longest-match left-to-right, and no
    clock or RNG is ever consulted.
    """

    def __init__(self, lexicon: Optional[DomainLexicon] = None):
        self.lexicon = lexicon if lexicon is not None else restaurant_lexicon()
        self.pos = PosLexicon(self.lexicon)
        #: opinion phrase (as a token tuple) → canonical opinion text.
        self._opinion_phrases: Dict[Tuple[str, ...], str] = {}
        for surface in sorted(self.lexicon.opinion_index()):
            self._opinion_phrases[tuple(surface.split())] = surface
        #: aspect surface phrase (as a token tuple) → concept name.
        self._aspect_phrases: Dict[Tuple[str, ...], str] = {}
        for surface, concept in sorted(self.lexicon.aspect_surface_index().items()):
            self._aspect_phrases[tuple(surface.split())] = concept

    # ------------------------------------------------------------------ parse

    def parse(self, utterance: str) -> ParsedUtterance:
        """Detect the intent, fill cuisine/city slots and label the route."""
        tokens = word_tokenize(utterance)
        token_set = set(tokens)
        intent = "searchRestaurant" if token_set & SEARCH_MARKERS else "unknown"
        slots: Dict[str, str] = {}
        for token in tokens:
            if token in KNOWN_CUISINES and "cuisine" not in slots:
                slots["cuisine"] = token
            if token in KNOWN_CITIES and "city" not in slots:
                slots["city"] = token
        return ParsedUtterance(
            text=utterance,
            tokens=tokens,
            intent=intent,
            slots=slots,
            route=self.route_tokens(tokens),
        )

    # ------------------------------------------------------------ phrase scans

    def _scan(
        self, tokens: Sequence[str], table: Dict[Tuple[str, ...], str]
    ) -> List[Tuple[int, str, str]]:
        """Greedy longest-match scan: ``(position, surface, value)`` hits."""
        hits: List[Tuple[int, str, str]] = []
        i = 0
        while i < len(tokens):
            matched = 0
            for width in range(min(_MAX_PHRASE_TOKENS, len(tokens) - i), 0, -1):
                phrase = tuple(tokens[i : i + width])
                value = table.get(phrase)
                if value is not None:
                    hits.append((i, " ".join(phrase), value))
                    matched = width
                    break
            i += matched or 1
        return hits

    def opinion_mentions(self, tokens: Sequence[str]) -> List[Tuple[int, str]]:
        """``(position, opinion text)`` for every lexicon opinion mentioned."""
        return [(pos, value) for pos, _, value in self._scan(tokens, self._opinion_phrases)]

    def aspect_mentions(self, tokens: Sequence[str]) -> List[Tuple[int, str, str]]:
        """``(position, surface, concept)`` for every aspect surface mentioned."""
        return self._scan(tokens, self._aspect_phrases)

    # ------------------------------------------------------------------ route

    def route_tokens(self, tokens: Sequence[str]) -> str:
        """Route label for a token sequence (see the module docstring)."""
        if not tokens:
            return ROUTE_CHITCHAT
        if self.opinion_mentions(tokens):
            return ROUTE_SUBJECTIVE
        token_set = set(tokens)
        if token_set & SEARCH_MARKERS or token_set & KNOWN_CUISINES or token_set & KNOWN_CITIES:
            return ROUTE_OBJECTIVE
        if self.aspect_mentions(tokens):
            return ROUTE_OBJECTIVE
        return ROUTE_CHITCHAT
