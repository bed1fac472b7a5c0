"""Shared utilities: seeded randomness, numerics, artifact caching, timing.

These helpers are deliberately tiny and dependency-free (numpy only) so that
every other subpackage can import them without cycles.
"""

from repro.utils.caching import ArtifactCache, default_cache, fingerprint, memoize
from repro.utils.locks import (
    LockWitness,
    TrackedLock,
    make_lock,
    reset_witness,
    witness,
    witness_enabled,
)
from repro.utils.numerics import (
    log_softmax,
    logsumexp,
    one_hot,
    sigmoid,
    softmax,
    stable_log,
)
from repro.utils.rng import SeedSequence, derive_rng, derive_seed, new_rng
from repro.utils.timing import StageTimings

__all__ = [
    "ArtifactCache",
    "LockWitness",
    "SeedSequence",
    "StageTimings",
    "TrackedLock",
    "default_cache",
    "derive_rng",
    "derive_seed",
    "fingerprint",
    "log_softmax",
    "logsumexp",
    "make_lock",
    "memoize",
    "new_rng",
    "one_hot",
    "reset_witness",
    "sigmoid",
    "softmax",
    "stable_log",
    "witness",
    "witness_enabled",
]
