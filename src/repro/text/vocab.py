"""Tag vocabulary: interning subjective tags for the vectorized kernel.

The index-side linear algebra (Eq. 1 degrees, Algorithm 1 similar-tag
expansion) operates over integer tag ids rather than tag objects.  The
vocabulary interns every distinct tag seen at registration/indexing time to
a dense id and resolves its kernel features — normalised opinion form,
taxonomy concept, unit opinion embedding — exactly once, so no hot-path call
ever re-normalises a phrase or re-walks the taxonomy.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.text.similarity import ConceptualSimilarity, TagFeatures

__all__ = ["TagVocabulary"]


class TagVocabulary:
    """Bidirectional tag ↔ integer-id mapping with cached kernel features.

    Tags may be :class:`~repro.core.tags.SubjectiveTag` objects or raw
    (aspect, opinion) tuples — anything hashable with a ``pair`` attribute
    or 2-tuple shape.  Feature arrays grow incrementally: interning is O(1)
    amortised and :meth:`features` extends its cached columnar arrays only
    by the newly interned suffix.
    """

    def __init__(self, similarity: ConceptualSimilarity):
        self.similarity = similarity
        self._ids: Dict[object, int] = {}
        self._tags: List[object] = []
        self._profiles: List[object] = []
        self._features: Optional[TagFeatures] = None
        self._features_len = 0

    # -------------------------------------------------------------- interning

    def intern(self, tag) -> int:
        """Id for ``tag``, assigning the next dense id on first sight."""
        tag_id = self._ids.get(tag)
        if tag_id is not None:
            return tag_id
        tag_id = len(self._tags)
        self._ids[tag] = tag_id
        self._tags.append(tag)
        self._profiles.append(self.similarity.tag_profile(tag))
        return tag_id

    def intern_many(self, tags: Iterable) -> List[int]:
        """Intern a batch, returning ids in input order."""
        return [self.intern(tag) for tag in tags]

    # ---------------------------------------------------------------- lookups

    def __len__(self) -> int:
        return len(self._tags)

    def __contains__(self, tag) -> bool:
        return tag in self._ids

    def id_of(self, tag) -> Optional[int]:
        """Id of an already-interned tag, or ``None``."""
        return self._ids.get(tag)

    def tag_of(self, tag_id: int):
        """The tag object interned under ``tag_id``."""
        return self._tags[tag_id]

    @property
    def tags(self) -> List[object]:
        """All interned tags in id order."""
        return list(self._tags)

    # --------------------------------------------------------------- features

    def features(self) -> TagFeatures:
        """Columnar kernel features covering the whole vocabulary."""
        if self._features is None:
            self._features = self.similarity.profile_features(self._profiles)
        elif self._features_len < len(self._tags):
            new = self.similarity.profile_features(self._profiles[self._features_len :])
            old = self._features
            self._features = TagFeatures(
                concepts=np.concatenate([old.concepts, new.concepts]),
                surfaces=np.concatenate([old.surfaces, new.surfaces]),
                opinions=np.concatenate([old.opinions, new.opinions]),
                units=np.vstack([old.units, new.units]),
            )
        self._features_len = len(self._tags)
        return self._features

    def similarity_rows(self, tags: Sequence) -> np.ndarray:
        """(len(tags) × len(vocab)) similarity block against the vocabulary."""
        return self.similarity.similarity_block(
            self.similarity.tag_features(tags), self.features()
        )
