"""Multi-turn conversational sessions over SACCS.

The paper positions SACCS inside task-oriented dialog systems, where search
is rarely one-shot: users refine ("make it quick service too"), retract
("price doesn't matter actually") and re-anchor ("what about in lyon?")
across turns.  :class:`ConversationSession` keeps the evolving query state —
objective slots plus the accumulated subjective tags — and re-ranks after
every turn, optionally through a :class:`~repro.core.profiles.UserProfile`.

Ahead of extraction each turn runs through a
:class:`~repro.conversation.stage.ConversationStage` (on by default): the
utterance is routed subjective / objective / chitchat, pronouns are
resolved against the salience stack, elliptical follow-ups are rewritten
into self-contained queries, and topic shifts reset stale subjective
context.  Only ``subjective`` turns reach the neural extractor; the other
routes re-rank from accumulated state alone.  Passing ``stage=None``
disables the stage entirely (the pre-stage behaviour: every turn is
extracted verbatim), which is the baseline the equivalence tests compare
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.conversation.classify import ROUTE_CHITCHAT, ROUTE_SUBJECTIVE
from repro.conversation.stage import ConversationStage
from repro.core.extractor import TagExtractor
from repro.core.filtering import filter_and_rank
from repro.core.profiles import UserProfile, personalized_rank
from repro.core.saccs import Saccs
from repro.core.tags import SubjectiveTag
from repro.text.tokenize import word_tokenize

__all__ = ["Turn", "ConversationSession"]

_RESET_MARKERS = {"start over", "new search", "forget that", "reset"}
_RETRACT_MARKERS = ("doesn't matter", "does not matter", "drop the", "forget the", "never mind the")

#: sentinel distinguishing "use the default stage" from an explicit ``None``.
_DEFAULT_STAGE = object()


def _tokens_match(token: str, aspect_token: str) -> bool:
    """Whole-token match with trivial-plural tolerance (price/prices)."""
    return (
        token == aspect_token
        or token == aspect_token + "s"
        or aspect_token == token + "s"
    )


@dataclass
class Turn:
    """One exchange: what the user said and what the system answered."""

    utterance: str
    added_tags: List[SubjectiveTag]
    removed_tags: List[SubjectiveTag]
    slots: Dict[str, str]
    results: List[Tuple[str, float]]
    #: the self-contained form the ranker actually saw (== utterance when
    #: no pronoun resolution / rewriting applied).
    resolved: str = ""
    #: subjectivity route decision for this turn.
    route: str = ROUTE_SUBJECTIVE
    #: whether this turn triggered a topic-shift context reset.
    shift: bool = False


class ConversationSession:
    """Stateful refinement loop around a built :class:`Saccs` instance."""

    def __init__(
        self,
        saccs: Saccs,
        profile: Optional[UserProfile] = None,
        dimension_of=None,
        top_k: int = 10,
        stage=_DEFAULT_STAGE,
    ):
        if not isinstance(saccs.extractor, TagExtractor):
            raise TypeError("ConversationSession needs a neural TagExtractor (utterances have no gold labels)")
        self.saccs = saccs
        self.profile = profile
        #: maps a tag to its dimension name for profile weighting (optional).
        self.dimension_of = dimension_of or (lambda tag: None)
        self.top_k = top_k
        if stage is _DEFAULT_STAGE:
            stage = ConversationStage(lexicon=saccs.similarity.lexicon)
        #: the conversation stage, or ``None`` for the verbatim baseline.
        self.stage: Optional[ConversationStage] = stage
        self.active_tags: List[SubjectiveTag] = []
        self.slots: Dict[str, str] = {}
        self.turns: List[Turn] = []

    # --------------------------------------------------------------- updates

    def reset(self) -> None:
        """Clear the accumulated query state."""
        self.active_tags.clear()
        self.slots.clear()
        if self.stage is not None:
            self.stage.reset()

    def _retractions(self, utterance: str) -> List[SubjectiveTag]:
        """Tags the user asked to drop ("the price doesn't matter").

        Aspect mentions match on whole-token boundaries (with trivial-plural
        tolerance), never on substrings — "not overpriced" must not retract
        a ``price`` tag just because "price" appears inside "overpriced".
        """
        lowered = utterance.lower()
        if not any(marker in lowered for marker in _RETRACT_MARKERS):
            return []
        tokens = word_tokenize(utterance)
        removed = []
        for tag in self.active_tags:
            aspect_tokens = word_tokenize(tag.aspect)
            if not aspect_tokens:
                continue
            width = len(aspect_tokens)
            for start in range(len(tokens) - width + 1):
                if all(
                    _tokens_match(tokens[start + offset], aspect_tokens[offset])
                    for offset in range(width)
                ):
                    removed.append(tag)
                    break
        return removed

    def say(self, utterance: str) -> Turn:
        """Process one user turn and return it (with fresh results)."""
        lowered = utterance.lower()
        if any(marker in lowered for marker in _RESET_MARKERS):
            self.reset()
            turn = Turn(
                utterance, [], [], dict(self.slots), [],
                resolved=utterance, route=ROUTE_CHITCHAT,
            )
            self.turns.append(turn)
            return turn

        removed = self._retractions(utterance)
        for tag in removed:
            self.active_tags.remove(tag)

        shift = False
        if self.stage is not None:
            analysis = self.stage.analyze(utterance)
            self.slots.update(analysis.slots)
            if analysis.shift:
                # Wholesale topic change: stale subjective tags would poison
                # the new ranking.  Objective slots survive the shift.
                self.active_tags.clear()
                shift = True
            route = analysis.route
            resolved = analysis.resolved
            extract_tokens: Sequence[str] = (
                analysis.resolved_tokens if route == ROUTE_SUBJECTIVE else []
            )
        else:
            parsed = self.saccs.dialog.recognizer.parse(utterance)
            self.slots.update(parsed.slots)
            route = ROUTE_SUBJECTIVE
            resolved = utterance
            extract_tokens = parsed.tokens

        added = []
        # a retraction turn does not add its aspect back; an empty utterance
        # has nothing to extract (and some taggers choke on zero tokens).
        if not removed and extract_tokens:
            for tag in self.saccs.extractor.extract(list(extract_tokens)):
                if tag not in self.active_tags:
                    self.active_tags.append(tag)
                    added.append(tag)
        if self.profile is not None and added:
            self.profile.record_query(added, self.dimension_of)
        if self.stage is not None and added:
            self.stage.observe_tags(added)

        results = self._rank()
        if self.stage is not None:
            self.stage.observe_results(results)
        turn = Turn(
            utterance, added, removed, dict(self.slots), results,
            resolved=resolved, route=route, shift=shift,
        )
        self.turns.append(turn)
        return turn

    # --------------------------------------------------------------- ranking

    def _rank(self) -> List[Tuple[str, float]]:
        """Algorithm 1 over the accumulated state: one facade call per turn."""
        api_ids = [e.entity_id for e in self.saccs.dialog.api.search(self.slots)]
        if self.profile is not None:
            dimensions = [self.dimension_of(tag) for tag in self.active_tags]

            def rank(ids, tag_sets):
                return personalized_rank(tag_sets, dimensions, self.profile, ids, top_k=self.top_k)
        else:
            config = self.saccs.config.filter_config()
            config.top_k = self.top_k

            def rank(ids, tag_sets):
                return filter_and_rank(ids, tag_sets, config)
        return self.saccs.answer_many([self.active_tags], [api_ids], rank=rank)[0]

    # ------------------------------------------------------------- inspection

    def state_summary(self) -> str:
        """One-line rendering of the accumulated query state.

        Tags and slots render in sorted order so two sessions holding the
        same state — even tags accumulated in different turn orders, or
        tags with equal index degrees — summarise to identical strings.
        When at least one turn has happened, the last turn's understanding
        (raw utterance, resolved form, route) is appended so session
        debugging shows what the ranker actually saw.
        """
        tags = ", ".join(sorted(t.text for t in self.active_tags)) or "(none)"
        slots = ", ".join(f"{k}={v}" for k, v in sorted(self.slots.items())) or "(none)"
        summary = f"tags: {tags} | slots: {slots}"
        if self.turns:
            last = self.turns[-1]
            turn_fields = {
                "raw": last.utterance,
                "resolved": last.resolved,
                "route": last.route,
            }
            rendered = ", ".join(f"{k}={v}" for k, v in sorted(turn_fields.items()))
            summary = f"{summary} | turn: {rendered}"
        return summary
