"""``repro.core`` — the paper's contribution: SACCS.

Subjective tags, the BERT+BiLSTM+CRF tagger with FGSM adversarial training,
the pairing heuristics and data-programming pairing pipeline, the subjective
tag index with degrees of truth, filtering & ranking (Algorithm 1), the
dialog-system shim, the SACCS facade, and the IR/SIM baselines.
"""

from repro.core.baselines import IRBaseline, SimBaseline
from repro.core.dialog import DialogSystem, ParsedUtterance, SearchApi
from repro.core.evaluation import (
    ClassificationReport,
    SpanF1,
    classification_report,
    span_f1,
)
from repro.core.extraction_engine import ExtractionEngine
from repro.core.extractor import (
    ClassifierPairer,
    HeuristicPairer,
    OracleExtractor,
    Pairer,
    TagExtractor,
)
from repro.core.filtering import FilterConfig, aggregate_scores, filter_and_rank
from repro.core.fraud import FakeReviewFilter, FraudFilterConfig
from repro.core.profiles import UserProfile, personalized_rank
from repro.core.heuristics import (
    AttentionPairingHeuristic,
    PairingHeuristic,
    TreePairingHeuristic,
    WordDistanceHeuristic,
)
from repro.core.index import SubjectiveTagIndex
from repro.core.snapshot import (
    SnapshotError,
    SnapshotIntegrityError,
    SnapshotNotFound,
    SnapshotVersionError,
    load_snapshot,
    save_snapshot,
)
from repro.core.pairing import (
    PairingClassifier,
    PairingInstance,
    PairingPipeline,
    default_labeling_functions,
    heuristic_labeling_function,
    instances_from_examples,
    select_attention_heads,
)
from repro.core.saccs import IndexingRound, Saccs, SaccsConfig
from repro.core.session import ConversationSession, Turn
from repro.core.tagger import SequenceTagger
from repro.core.tags import SubjectiveTag
from repro.core.training import (
    AdversarialConfig,
    TaggerTrainer,
    TaggerTrainingConfig,
    evaluate_tagger,
)

__all__ = [
    "AdversarialConfig",
    "AttentionPairingHeuristic",
    "ClassificationReport",
    "ClassifierPairer",
    "ConversationSession",
    "DialogSystem",
    "ExtractionEngine",
    "FakeReviewFilter",
    "FilterConfig",
    "FraudFilterConfig",
    "HeuristicPairer",
    "IRBaseline",
    "IndexingRound",
    "OracleExtractor",
    "Pairer",
    "PairingClassifier",
    "PairingHeuristic",
    "PairingInstance",
    "PairingPipeline",
    "ParsedUtterance",
    "Saccs",
    "SaccsConfig",
    "SearchApi",
    "SequenceTagger",
    "SimBaseline",
    "SpanF1",
    "SubjectiveTag",
    "SnapshotError",
    "SnapshotIntegrityError",
    "SnapshotNotFound",
    "SnapshotVersionError",
    "SubjectiveTagIndex",
    "TagExtractor",
    "TaggerTrainer",
    "TaggerTrainingConfig",
    "TreePairingHeuristic",
    "Turn",
    "UserProfile",
    "WordDistanceHeuristic",
    "aggregate_scores",
    "classification_report",
    "default_labeling_functions",
    "evaluate_tagger",
    "filter_and_rank",
    "heuristic_labeling_function",
    "instances_from_examples",
    "personalized_rank",
    "save_snapshot",
    "load_snapshot",
    "select_attention_heads",
    "span_f1",
]
