"""``repro.core`` — the paper's contribution: SACCS.

Subjective tags, the BERT+BiLSTM+CRF tagger with FGSM adversarial training,
the pairing heuristics and data-programming pairing pipeline, the subjective
tag index with degrees of truth, filtering & ranking (Algorithm 1), the
dialog-system shim, the SACCS facade, and the IR/SIM baselines.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "baselines": ("IRBaseline", "SimBaseline"),
        "dialog": ("DialogSystem", "ParsedUtterance", "SearchApi"),
        "evaluation": ("ClassificationReport", "SpanF1", "classification_report", "span_f1"),
        "extraction_engine": ("ExtractionEngine",),
        "extractor": (
            "ClassifierPairer",
            "HeuristicPairer",
            "OracleExtractor",
            "Pairer",
            "TagExtractor",
        ),
        "filtering": ("FilterConfig", "aggregate_scores", "filter_and_rank"),
        "fraud": ("FakeReviewFilter", "FraudFilterConfig"),
        "heuristics": (
            "AttentionPairingHeuristic",
            "PairingHeuristic",
            "TreePairingHeuristic",
            "WordDistanceHeuristic",
        ),
        "index": ("SubjectiveTagIndex",),
        "pairing": (
            "PairingClassifier",
            "PairingInstance",
            "PairingPipeline",
            "default_labeling_functions",
            "heuristic_labeling_function",
            "instances_from_examples",
            "select_attention_heads",
        ),
        "profiles": ("UserProfile", "personalized_rank"),
        "saccs": ("IndexingRound", "Saccs", "SaccsConfig"),
        "session": ("ConversationSession", "Turn"),
        "snapshot": (
            "SnapshotError",
            "SnapshotIntegrityError",
            "SnapshotNotFound",
            "SnapshotVersionError",
            "load_snapshot",
            "save_snapshot",
        ),
        "tagger": ("SequenceTagger",),
        "tags": ("SubjectiveTag",),
        "training": (
            "AdversarialConfig",
            "TaggerTrainer",
            "TaggerTrainingConfig",
            "evaluate_tagger",
        ),
    },
)
