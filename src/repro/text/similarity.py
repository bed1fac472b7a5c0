"""Conceptual similarity between subjective tags (Section 3.1).

A subjective tag is an (aspect phrase, opinion phrase) pair.  Tag similarity
combines:

* **aspect similarity** — Wu–Palmer over the concept taxonomy, so *pizza*
  matches *food* strongly;
* **opinion similarity** — cosine between semantic feature vectors built from
  the lexicon: each opinion word is embedded by its polarity and its topic
  distribution, so *delicious* and *tasty* land close, while *delicious* and
  *friendly* diverge through their disjoint topics.

The paper states conceptual similarity "works better on short phrases such as
subjective tags than cosine similarity [over raw text]", which is exactly the
behaviour this construction yields.

Two evaluation paths are provided:

* :meth:`ConceptualSimilarity.tag_similarity` — the scalar reference oracle,
  one pair at a time;
* :meth:`ConceptualSimilarity.tag_similarity_matrix` — the vectorized kernel:
  the full pairwise score block via one stacked opinion-embedding matmul plus
  the taxonomy's precomputed concept-pair Wu–Palmer table.  It reproduces the
  scalar formula ``sqrt(aspect_sim) * (floor + (1 - floor) * opinion_sim)``
  exactly (agreement ≤ 1e-9 on every entry, enforced by the property tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.text.concepts import ConceptTaxonomy
from repro.text.lexicon import DomainLexicon, OpinionWord
from repro.utils.caching import memoize

__all__ = ["ConceptualSimilarity", "TagFeatures", "tag_pair"]

_MODIFIERS = {"really", "very", "super", "quite", "extremely", "pretty", "so", "a", "bit"}


_POLARITY_SCALE = 1.5
_IDENTITY_DIM = 8
_IDENTITY_SCALE = 0.5

#: blocks up to this many query rows are evaluated one gemv per row so each
#: row's scores do not depend on the batch shape (see similarity_block).
_ROW_STATIONARY_MAX_ROWS = 64


def tag_pair(tag) -> Tuple[str, str]:
    """(aspect, opinion) for a :class:`SubjectiveTag` or a raw 2-tuple."""
    pair = getattr(tag, "pair", tag)
    return (pair[0], pair[1])


@memoize
def _identity_vector(word: str) -> np.ndarray:
    """A stable pseudo-random unit vector unique-ish to each word.

    Keeps distinct-but-related opinion words ("romantic" vs "quiet") from
    collapsing onto each other when their topic sets overlap.  Memoized: the
    hash + RNG round is pure and word-keyed, so each word pays it once per
    process instead of once per pairwise call.
    """
    import hashlib

    seed = int.from_bytes(hashlib.sha256(word.encode("utf-8")).digest()[:8], "little")
    vec = np.random.default_rng(seed).normal(size=_IDENTITY_DIM)
    return vec / np.linalg.norm(vec)


@dataclass(frozen=True)
class _TagProfile:
    """Per-tag facts the kernel needs, resolved once and cached.

    ``concept_gid`` indexes the taxonomy pair table (-1 when the aspect is
    out of taxonomy); ``surface_gid``/``opinion_gid`` intern the lower-cased
    aspect surface and the *normalised* opinion form, so equality checks are
    integer comparisons; ``unit`` is the unit-norm opinion embedding (``None``
    when out of vocabulary).
    """

    concept_gid: int
    surface_gid: int
    opinion_gid: int
    unit: Optional[np.ndarray]


@dataclass(frozen=True)
class TagFeatures:
    """Columnar features for a batch of tags — the kernel's input shape."""

    concepts: np.ndarray  #: (n,) concept gids, -1 for unknown aspects
    surfaces: np.ndarray  #: (n,) interned aspect surface forms
    opinions: np.ndarray  #: (n,) interned normalised opinion forms
    units: np.ndarray     #: (n, dim) unit opinion embeddings, zero rows when OOV

    def __len__(self) -> int:
        return len(self.concepts)


class ConceptualSimilarity:
    """Similarity oracle over subjective tags for one domain.

    Opinion words are embedded from lexicon semantics: a topic-distribution
    block, a *signed* polarity channel (scaled so that opposite-polarity
    words repel) and a small per-word identity block.  The overall tag
    similarity gates the opinion cosine by the (softened) taxonomy
    similarity of the aspects, so tags about unrelated aspects score ~0 no
    matter the opinions, and same-aspect opposite-polarity tags stay well
    below any sensible indexing threshold.
    """

    def __init__(
        self,
        lexicon: DomainLexicon,
        opinion_floor: float = 0.35,
    ):
        if not 0.0 <= opinion_floor < 1.0:
            raise ValueError("opinion_floor must lie in [0, 1)")
        self.lexicon = lexicon
        self.taxonomy = ConceptTaxonomy(lexicon)
        #: similarity granted to a perfect aspect match with unknown/zero
        #: opinion affinity (same aspect is weak evidence by itself).
        self.opinion_floor = opinion_floor
        self._topics = sorted({t for op in lexicon.opinions for t in op.topics})
        self._topic_index = {t: i for i, t in enumerate(self._topics)}
        self._opinion_vectors: Dict[str, np.ndarray] = {
            op.text.lower(): self._vectorise(op) for op in lexicon.opinions
        }
        self._dim = len(self._topics) + 1 + _IDENTITY_DIM
        #: unit-norm copies for the matmul kernel (cosine = dot of units).
        self._opinion_units: Dict[str, np.ndarray] = {
            word: vec / np.linalg.norm(vec) for word, vec in self._opinion_vectors.items()
        }
        self._norm_cache: Dict[str, str] = {}
        self._profile_cache: Dict[Tuple[str, str], _TagProfile] = {}
        self._surface_gids: Dict[str, int] = {}
        self._opinion_gids: Dict[str, int] = {}

    # ----------------------------------------------------------- embeddings

    def _vectorise(self, opinion: OpinionWord) -> np.ndarray:
        """Topic block + signed polarity channel + identity block."""
        vec = np.zeros(len(self._topics) + 1 + _IDENTITY_DIM, dtype=np.float64)
        for topic in opinion.topics:
            vec[self._topic_index[topic]] = 1.0 / np.sqrt(len(opinion.topics))
        vec[len(self._topics)] = _POLARITY_SCALE * opinion.polarity
        vec[len(self._topics) + 1 :] = _IDENTITY_SCALE * _identity_vector(opinion.text.lower())
        return vec

    def _normalise_opinion(self, phrase: str) -> str:
        """Strip intensity modifiers: 'really good' → 'good'.  Memoized."""
        cached = self._norm_cache.get(phrase)
        if cached is not None:
            return cached
        norm = self._normalise_opinion_uncached(phrase)
        self._norm_cache[phrase] = norm
        return norm

    def _normalise_opinion_uncached(self, phrase: str) -> str:
        phrase = phrase.lower().strip()
        if phrase in self._opinion_vectors:
            return phrase
        words = [w for w in phrase.split() if w not in _MODIFIERS]
        candidate = " ".join(words)
        if candidate in self._opinion_vectors:
            return candidate
        # Multi-word idioms may include modifier-looking words; retry raw tail.
        for n in range(len(words)):
            tail = " ".join(words[n:])
            if tail in self._opinion_vectors:
                return tail
        return phrase

    def opinion_vector(self, phrase: str) -> Optional[np.ndarray]:
        """Embedding of an opinion phrase, or ``None`` if out of vocabulary."""
        return self._opinion_vectors.get(self._normalise_opinion(phrase))

    # ----------------------------------------------------------- similarity

    def opinion_similarity(self, phrase_a: str, phrase_b: str) -> float:
        """Cosine similarity between opinion phrases (0 when unknown)."""
        norm_a = self._normalise_opinion(phrase_a)
        norm_b = self._normalise_opinion(phrase_b)
        if norm_a == norm_b:
            return 1.0
        vec_a = self._opinion_vectors.get(norm_a)
        vec_b = self._opinion_vectors.get(norm_b)
        if vec_a is None or vec_b is None:
            return 0.0
        denom = np.linalg.norm(vec_a) * np.linalg.norm(vec_b)
        if denom == 0:
            return 0.0
        # Opposite-polarity pairs drive the cosine negative; clamp to 0.
        return float(np.clip(np.dot(vec_a, vec_b) / denom, 0.0, 1.0))

    def aspect_similarity(self, surface_a: str, surface_b: str) -> float:
        """Taxonomy similarity between aspect surface forms."""
        return self.taxonomy.surface_similarity(surface_a, surface_b)

    def tag_similarity(self, tag_a: Tuple[str, str], tag_b: Tuple[str, str]) -> float:
        """Similarity between two (aspect, opinion) tags, in [0, 1].

        ``sqrt(aspect_sim) * (floor + (1 - floor) * opinion_sim)``: the
        aspect channel multiplicatively gates the score (unrelated aspects →
        ~0 regardless of opinions), softened by a square root so taxonomy
        children ("pizza" under "food") are not over-penalised.
        """
        aspect_sim = self.aspect_similarity(tag_a[0], tag_b[0])
        if aspect_sim <= 0.0:
            return 0.0
        opinion_sim = self.opinion_similarity(tag_a[1], tag_b[1])
        gate = np.sqrt(aspect_sim)
        score = gate * (self.opinion_floor + (1.0 - self.opinion_floor) * opinion_sim)
        return float(np.clip(score, 0.0, 1.0))

    # ----------------------------------------------------- vectorized kernel

    def tag_profile(self, tag) -> _TagProfile:
        """Resolved per-tag features, computed once per distinct surface pair."""
        aspect, opinion = tag_pair(tag)
        key = (aspect, opinion)
        profile = self._profile_cache.get(key)
        if profile is not None:
            return profile
        surface = aspect.lower()
        concept = self.taxonomy.concept_of(surface)
        concept_gid = self.taxonomy.concept_index(concept) if concept is not None else -1
        norm = self._normalise_opinion(opinion)
        profile = _TagProfile(
            concept_gid=concept_gid,
            surface_gid=self._surface_gids.setdefault(surface, len(self._surface_gids)),
            opinion_gid=self._opinion_gids.setdefault(norm, len(self._opinion_gids)),
            unit=self._opinion_units.get(norm),
        )
        self._profile_cache[key] = profile
        return profile

    def profile_features(self, profiles: Sequence[_TagProfile]) -> TagFeatures:
        """Stack per-tag profiles into the kernel's columnar arrays."""
        n = len(profiles)
        units = np.zeros((n, self._dim), dtype=np.float64)
        for i, profile in enumerate(profiles):
            if profile.unit is not None:
                units[i] = profile.unit
        return TagFeatures(
            concepts=np.fromiter((p.concept_gid for p in profiles), dtype=np.intp, count=n),
            surfaces=np.fromiter((p.surface_gid for p in profiles), dtype=np.intp, count=n),
            opinions=np.fromiter((p.opinion_gid for p in profiles), dtype=np.intp, count=n),
            units=units,
        )

    def tag_features(self, tags: Sequence) -> TagFeatures:
        """Columnar features for a batch of tags (profiles are memoized)."""
        return self.profile_features([self.tag_profile(tag) for tag in tags])

    def similarity_block(self, features_a: TagFeatures, features_b: TagFeatures) -> np.ndarray:
        """The pairwise score block between two featurised tag batches.

        Bit-for-bit semantics of :meth:`tag_similarity`: exact surface or
        normalised-opinion equality short-circuits to 1.0 before any float
        arithmetic, unknown aspects/opinions contribute exactly 0.0, and the
        same gate formula is applied elementwise.
        """
        if len(features_a) == 0 or len(features_b) == 0:
            return np.zeros((len(features_a), len(features_b)), dtype=np.float64)
        # Opinion channel over unit embeddings.  OOV rows are zero vectors,
        # so unknown opinions yield cosine 0 for free.  Small blocks are
        # evaluated row-stationary (one gemv per query row): BLAS gemm picks
        # shape-dependent accumulation orders, so the same query row can land
        # on different low bits depending on how many rows ride along in the
        # block.  Row-stationary evaluation makes every row's scores bitwise
        # independent of its batch — the guarantee `repro.serve`'s
        # micro-batches rely on to stay byte-identical with the sequential
        # oracle.  Large blocks (index builds) keep the stacked matmul.
        if len(features_a) <= _ROW_STATIONARY_MAX_ROWS:
            bt = features_b.units.T
            opinion = np.vstack([row @ bt for row in features_a.units])
        else:
            opinion = features_a.units @ features_b.units.T
        np.clip(opinion, 0.0, 1.0, out=opinion)
        # Equal normalised phrases are defined as 1.0 (even when both OOV).
        opinion[features_a.opinions[:, None] == features_b.opinions[None, :]] = 1.0
        # Aspect channel: gather from the concept-pair Wu–Palmer table
        # (padded so gid -1 → 0), then the exact-surface-equality override.
        table = self.taxonomy.pair_table_padded()
        aspect = table[features_a.concepts[:, None], features_b.concepts[None, :]]
        aspect[features_a.surfaces[:, None] == features_b.surfaces[None, :]] = 1.0
        score = np.sqrt(aspect) * (self.opinion_floor + (1.0 - self.opinion_floor) * opinion)
        score[aspect <= 0.0] = 0.0
        np.clip(score, 0.0, 1.0, out=score)
        return score

    def tag_similarity_matrix(self, tags_a: Sequence, tags_b: Sequence) -> np.ndarray:
        """Full pairwise similarity block, ``result[i, j] = sim(a[i], b[j])``.

        Accepts :class:`SubjectiveTag` objects or raw (aspect, opinion)
        tuples.  Agrees with the scalar :meth:`tag_similarity` to ≤ 1e-9 on
        every entry — the scalar path stays the reference oracle.
        """
        return self.similarity_block(self.tag_features(tags_a), self.tag_features(tags_b))
