"""The conversation stage: classify → resolve → rewrite → shift, per turn.

:class:`ConversationStage` is the orchestrator the session layer calls
ahead of extraction.  One :meth:`analyze` call runs the full pipeline over
a raw utterance and returns a :class:`TurnAnalysis` describing what the
downstream extractor/ranker should actually see:

1. **classify** — intent, objective slots and the subjectivity route
   (:mod:`repro.conversation.classify`);
2. **resolve** — pronouns substituted from the salience stack
   (:mod:`repro.conversation.coref`);
3. **rewrite** — elliptical fragments expanded into self-contained queries
   (:mod:`repro.conversation.rewrite`); if resolution or rewriting changed
   the tokens, the route is re-derived from the final form;
4. **shift** — the turn is compared against accumulated subjective context
   and, on a wholesale topic change, aspect/opinion salience and context
   concepts are dropped (:mod:`repro.conversation.topic_shift`).  Entity
   salience survives a shift: "it" still refers to the place under
   discussion even when the user changes what they want from it.  Turns
   that resolved a pronoun or expanded an ellipsis never shift — they
   reference the standing context by construction.

The classifier, resolver, rewriter and shift detector are pure functions
of the domain lexicon, so they live in :class:`ConversationTables`, built
once and shared by every stage over that lexicon; a
:class:`ConversationStage` owns only one session's mutable state (the
salience stack, the context concepts, the turn counter and the last
analysis).

Each sub-stage runs under a ``conv.*`` observability span, and when a
:class:`~repro.serve.metrics.MetricsRegistry` is attached the stage
maintains ``conv.route.*`` distribution counters plus
``conv.coref.hit`` / ``conv.coref.miss`` (which the registry rolls into a
resolution-rate ratio).  The stage consults no clock and no RNG: analysis
output is a pure function of the utterance sequence fed to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.conversation.classify import (
    ROUTE_COUNTERS,
    ParsedUtterance,
    QueryClassifier,
)
from repro.conversation.coref import CorefBinding, CoreferenceResolver
from repro.conversation.rewrite import QueryRewriter
from repro.conversation.salience import (
    KIND_ASPECT,
    KIND_ENTITY,
    KIND_OPINION,
    SalienceStack,
)
from repro.conversation.topic_shift import TopicShiftDetector
from repro.text.lexicon import DomainLexicon
from repro.text.tokenize import detokenize

__all__ = ["TurnAnalysis", "ConversationStage", "ConversationTables"]


@dataclass
class TurnAnalysis:
    """Everything the stage decided about one turn."""

    utterance: str
    tokens: List[str]
    #: route of the raw utterance, before resolution/rewriting.
    raw_route: str
    #: final route, re-derived from the resolved/rewritten form.
    route: str
    #: the self-contained form downstream extraction sees.
    resolved: str
    resolved_tokens: List[str]
    rewritten: bool
    carried_opinion: Optional[str]
    bindings: List[CorefBinding]
    coref_misses: int
    shift: bool
    intent: str
    slots: Dict[str, str] = field(default_factory=dict)

    @property
    def changed(self) -> bool:
        """Whether resolution or rewriting altered the token stream."""
        return self.resolved_tokens != self.tokens


class ConversationTables:
    """The read-only half of a stage: everything built from the lexicon.

    Holds no per-turn state, so one instance serves any number of
    sessions (the serving runtime builds one and hands it to every new
    session's :class:`ConversationStage`).
    """

    def __init__(self, lexicon: Optional[DomainLexicon] = None):
        self.classifier = QueryClassifier(lexicon)
        self.lexicon = self.classifier.lexicon
        self.coref = CoreferenceResolver(self.lexicon)
        self.rewriter = QueryRewriter(self.classifier)
        self.shift_detector = TopicShiftDetector(self.lexicon)


class ConversationStage:
    """Deterministic per-session multi-turn query understanding.

    ``tables`` shares an existing :class:`ConversationTables` (``lexicon``
    is then unused); without it the stage builds its own from ``lexicon``.
    """

    def __init__(
        self,
        lexicon: Optional[DomainLexicon] = None,
        metrics: Optional[object] = None,
        salience_limit: int = 16,
        tables: Optional[ConversationTables] = None,
    ):
        if tables is None:
            tables = ConversationTables(lexicon)
        self.classifier = tables.classifier
        self.lexicon = tables.lexicon
        self.coref = tables.coref
        self.rewriter = tables.rewriter
        self.shift_detector = tables.shift_detector
        self.salience = SalienceStack(limit=salience_limit)
        self.metrics = metrics
        #: the most recent :class:`TurnAnalysis` (debugging / bench access).
        self.last_analysis: Optional[TurnAnalysis] = None
        self._context_concepts: set = set()
        self._turn = 0

    # ------------------------------------------------------------- analysis

    def analyze(self, utterance: str) -> TurnAnalysis:
        """Run classify → resolve → rewrite → shift over one utterance."""
        self._turn += 1
        with obs.span("conv.classify") as sp:
            parsed: ParsedUtterance = self.classifier.parse(utterance)
            sp.set(route=parsed.route, intent=parsed.intent)
        with obs.span("conv.resolve") as sp:
            resolved_tokens, bindings, misses = self.coref.resolve(
                parsed.tokens, self.salience
            )
            sp.set(bindings=len(bindings), misses=misses)
        with obs.span("conv.rewrite") as sp:
            rewrite = self.rewriter.rewrite(resolved_tokens, self.salience)
            sp.set(rewritten=rewrite.rewritten)
        final_tokens = list(rewrite.tokens)
        route = parsed.route
        if bindings or rewrite.rewritten:
            route = self.classifier.route_tokens(final_tokens)
        with obs.span("conv.shift") as sp:
            decision = self.shift_detector.assess(
                self.classifier, final_tokens, sorted(self._context_concepts)
            )
            # An anaphoric turn (resolved pronoun or expanded ellipsis)
            # references the standing context by construction — the referent
            # tokens spliced in must not read as a fresh full query.
            shift = decision.shift and not bindings and not rewrite.rewritten
            sp.set(shift=shift)
        if shift:
            self._reset_subjective_context()
        self._observe_mentions(final_tokens)
        self._context_concepts |= decision.turn_concepts
        self._count(route, bindings, misses, shift)
        self.last_analysis = TurnAnalysis(
            utterance=utterance,
            tokens=parsed.tokens,
            raw_route=parsed.route,
            route=route,
            resolved=detokenize(final_tokens),
            resolved_tokens=final_tokens,
            rewritten=rewrite.rewritten,
            carried_opinion=rewrite.carried_opinion,
            bindings=list(bindings),
            coref_misses=misses,
            shift=shift,
            intent=parsed.intent,
            slots=dict(parsed.slots),
        )
        return self.last_analysis

    # ------------------------------------------------------------- feedback

    def observe_results(self, results: Sequence[Tuple[str, float]]) -> None:
        """Tell the stage what the ranker surfaced; the top hit becomes 'it'."""
        if not results:
            return
        entity_id = results[0][0]
        root = self.lexicon.aspects.get("entity")
        surface = f"the {root.surfaces[0]}" if root is not None else "the place"
        self.salience.push(KIND_ENTITY, str(entity_id), surface, self._turn)

    def observe_tags(self, tags: Sequence[object]) -> None:
        """Fold extracted tags' aspects back into salience and context."""
        for tag in tags:
            aspect = getattr(tag, "aspect", None)
            if not aspect:
                continue
            concept = self.lexicon.concept_of(aspect) or aspect
            self.salience.push(KIND_ASPECT, concept, f"the {aspect}", self._turn)
            self._context_concepts |= self.shift_detector.expand((concept,))

    def reset(self) -> None:
        """Hard reset ("start over"): drop all salience and context."""
        self.salience.clear()
        self._context_concepts.clear()

    # ------------------------------------------------------------- internals

    def _reset_subjective_context(self) -> None:
        """Topic shift: stale aspects/opinions go, the entity in focus stays."""
        self.salience.drop_kinds((KIND_ASPECT, KIND_OPINION))
        self._context_concepts.clear()

    def _observe_mentions(self, tokens: Sequence[str]) -> None:
        """Push this turn's explicit mentions; later mentions end up on top."""
        for _, surface, concept in self.classifier.aspect_mentions(tokens):
            self.salience.push(KIND_ASPECT, concept, f"the {surface}", self._turn)
        for _, opinion_text in self.classifier.opinion_mentions(tokens):
            self.salience.push(KIND_OPINION, opinion_text, opinion_text, self._turn)

    def _count(
        self, route: str, bindings: Sequence[CorefBinding], misses: int, shift: bool
    ) -> None:
        if self.metrics is None:
            return
        self.metrics.incr(ROUTE_COUNTERS[route])
        if bindings:
            self.metrics.incr("conv.coref.hit", len(bindings))
        if misses:
            self.metrics.incr("conv.coref.miss", misses)
        if shift:
            self.metrics.incr("conv.shift.detected")

    # ------------------------------------------------------------ inspection

    def context_concepts(self) -> List[str]:
        """Accumulated (expanded) context concepts, sorted for determinism."""
        return sorted(self._context_concepts)
