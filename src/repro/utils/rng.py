"""Deterministic random-number-generator plumbing.

Every stochastic component in the library (data generators, weight
initialisation, dropout, adversarial perturbations, crowd simulation)
receives an explicit :class:`numpy.random.Generator`.  Global seeding is
never used; instead, seeds are *derived* from a parent seed and a string
label, so adding a new consumer never perturbs the random stream of an
existing one.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

__all__ = ["SeedSequence", "derive_rng", "derive_seed", "new_rng", "weighted_cdf", "weighted_index"]


def derive_seed(parent_seed: int, label: str) -> int:
    """Derive a child seed from ``parent_seed`` and a stable string label.

    The derivation hashes ``(parent_seed, label)`` with SHA-256 so that
    distinct labels give statistically independent streams and the mapping
    is stable across processes and Python versions.
    """
    digest = hashlib.sha256(f"{parent_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def new_rng(seed: int) -> np.random.Generator:
    """Create a fresh PCG64 generator from an integer seed."""
    return np.random.default_rng(seed)


def derive_rng(parent_seed: int, label: str) -> np.random.Generator:
    """Create a generator whose stream is keyed by ``(parent_seed, label)``."""
    return new_rng(derive_seed(parent_seed, label))


def weighted_cdf(p: np.ndarray) -> np.ndarray:
    """The normalised CDF that ``Generator.choice(len(p), p=p)`` draws from.

    Same arithmetic as ``choice`` (``cdf = p.cumsum(); cdf /= cdf[-1]``), so
    for weights that sum to 1, as ``choice`` requires, :func:`weighted_index`
    over it returns ``choice``'s index.  Build it once and draw from it many
    times when the weights repeat.  Raises ``ValueError`` on weights that
    ``choice`` also rejects: negative or NaN entries, a zero or infinite sum.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"weights must be a non-empty 1-D array, got shape {p.shape}")
    if not p.min() >= 0.0:  # also false when an entry is NaN
        raise ValueError("weights must be non-negative and not NaN")
    cdf = p.cumsum()
    if not 0.0 < cdf[-1] < math.inf:
        raise ValueError(f"weights must have a positive, finite sum, got {cdf[-1]}")
    cdf /= cdf[-1]
    return cdf


def weighted_index(rng: np.random.Generator, cdf: np.ndarray) -> int:
    """Draw an index from a :func:`weighted_cdf`.

    Consumes exactly one ``rng.random()``, as ``Generator.choice`` does, and
    returns the index ``choice`` would: the stream stays where ``choice``
    would leave it, without ``choice``'s per-call argument checks.
    """
    return int(cdf.searchsorted(rng.random(), side="right"))


class SeedSequence:
    """A labelled tree of seeds rooted at a single experiment seed.

    Example
    -------
    >>> seeds = SeedSequence(1234)
    >>> rng_data = seeds.rng("data")
    >>> child = seeds.child("tagger")
    >>> rng_init = child.rng("init")
    """

    def __init__(self, seed: int, path: str = ""):
        self.seed = int(seed)
        self.path = path

    def _label(self, label: str) -> str:
        return f"{self.path}/{label}" if self.path else label

    def child(self, label: str) -> "SeedSequence":
        """Return a child sequence scoped under ``label``."""
        return SeedSequence(derive_seed(self.seed, self._label(label)), self._label(label))

    def rng(self, label: str) -> np.random.Generator:
        """Return a generator for the stream named ``label``."""
        return derive_rng(self.seed, self._label(label))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SeedSequence(seed={self.seed}, path={self.path!r})"
