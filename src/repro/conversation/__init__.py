"""Multi-turn query understanding ahead of extraction.

The paper's setting is *conversational* subjective search, which means the
query the ranker should answer is rarely the utterance the user typed:
pronouns refer back into the dialogue ("is *it* romantic?"), follow-ups are
elliptical ("what about parking?"), topics shift mid-session, and many
turns carry no subjective content at all.  This package is the pipeline
stage that closes that gap — classification/routing, coreference
resolution, query rewriting and topic-shift detection — wired in front of
:class:`~repro.core.extraction.ExtractionEngine` by the session layer.

Everything here is deterministic by construction (no clock, no RNG), so a
transcript fully determines every routing and resolution decision.
"""

from repro.conversation.classify import (
    ROUTE_CHITCHAT,
    ROUTE_OBJECTIVE,
    ROUTE_SUBJECTIVE,
    ROUTES,
    ParsedUtterance,
    QueryClassifier,
)
from repro.conversation.coref import CorefBinding, CoreferenceResolver
from repro.conversation.rewrite import QueryRewriter, RewriteResult
from repro.conversation.salience import (
    KIND_ASPECT,
    KIND_ENTITY,
    KIND_OPINION,
    SalienceEntry,
    SalienceStack,
)
from repro.conversation.stage import ConversationStage, ConversationTables, TurnAnalysis
from repro.conversation.topic_shift import ShiftDecision, TopicShiftDetector

__all__ = [
    "KIND_ASPECT",
    "KIND_ENTITY",
    "KIND_OPINION",
    "ROUTES",
    "ROUTE_CHITCHAT",
    "ROUTE_OBJECTIVE",
    "ROUTE_SUBJECTIVE",
    "ConversationStage",
    "ConversationTables",
    "CorefBinding",
    "CoreferenceResolver",
    "ParsedUtterance",
    "QueryClassifier",
    "QueryRewriter",
    "RewriteResult",
    "SalienceEntry",
    "SalienceStack",
    "ShiftDecision",
    "TopicShiftDetector",
    "TurnAnalysis",
]
