"""``repro.data`` — the synthetic world replacing Yelp/SemEval/Toloka.

Entities with latent subjective quality, template-realised reviews with gold
IOB labels and gold aspect–opinion pairs, the S1–S4 tagging benchmarks, the
pairing benchmark, simulated crowd annotation, and the Short/Medium/Long
query sets of the end-to-end evaluation.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "crowd": ("CrowdConfig", "CrowdSimulator", "SatTable"),
        "dimensions": ("SubjectiveDimension", "dimension_by_name", "restaurant_dimensions"),
        "entities": ("ATTRIBUTE_VALUES", "CatalogConfig", "generate_catalog"),
        "fraud": ("FraudCampaign", "FraudConfig", "inject_fraud"),
        "io": ("load_world", "save_world", "sentence_from_dict", "sentence_to_dict"),
        "noise": ("NoiseConfig", "apply_noise", "corrupt_token"),
        "pairing": (
            "PairingDataset",
            "PairingExample",
            "build_pairing_dataset",
            "candidate_pairs",
        ),
        "queries": ("DIFFICULTY_LEVELS", "QueryConfig", "SubjectiveQuery", "generate_query_sets"),
        "realize": (
            "AxisSpec",
            "RealizerConfig",
            "SentenceRealizer",
            "axes_from_dimensions",
            "axes_from_lexicon",
        ),
        "reviews": ("ReviewConfig", "ReviewGenerator"),
        "schema": ("Entity", "LabeledSentence", "PairSpan", "Review", "Span"),
        "semeval": (
            "DATASET_SPECS",
            "DatasetSpec",
            "TaggingDataset",
            "build_all_tagging_datasets",
            "build_tagging_dataset",
        ),
        "world": ("World", "WorldConfig", "build_world"),
    },
)
