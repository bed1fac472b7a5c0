"""Shared utilities: seeded randomness, numerics, artifact caching, timing.

These helpers are deliberately tiny and dependency-free (numpy only) so that
every other subpackage can import them without cycles.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "caching": ("ArtifactCache", "default_cache", "fingerprint", "memoize"),
        "locks": (
            "LockWitness",
            "TrackedLock",
            "make_lock",
            "reset_witness",
            "witness",
            "witness_enabled",
        ),
        "numerics": ("log_softmax", "logsumexp", "one_hot", "sigmoid", "softmax", "stable_log"),
        "rng": ("SeedSequence", "derive_rng", "derive_seed", "new_rng"),
        "timing": ("StageTimings",),
    },
)
