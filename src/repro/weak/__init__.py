"""``repro.weak`` — data programming (the Snorkel substitute).

Labeling functions vote (or abstain) on unlabelled examples; a label model
(majority vote or the EM-fit probabilistic generative model) denoises the
votes into training labels for a downstream discriminative classifier.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "analysis": ("LFSummary", "analyse_labeling_functions"),
        "generative": ("GenerativeLabelModel",),
        "lf": ("ABSTAIN", "LabelingFunction", "apply_labeling_functions"),
        "majority": ("MajorityVoteModel",),
    },
)
