"""Concept taxonomy over aspect concepts and Wu–Palmer-style similarity.

Section 3.1 of the paper uses "conceptual similarity" — similarity that knows
*pizza* is a kind of *food* — to match review tags against index tags.  The
paper leaves its construction out of scope; we implement a concrete instance:
an is-a tree rooted at ``entity``, held as a child → parent map, with
Wu–Palmer similarity ``2·depth(lca) / (depth(a) + depth(b))``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.text.lexicon import DomainLexicon

__all__ = ["ConceptTaxonomy"]


class ConceptTaxonomy:
    """Is-a hierarchy over a domain's aspect concepts."""

    def __init__(self, lexicon: DomainLexicon):
        self.lexicon = lexicon
        #: concept → parent (``None`` for the root).  Insertion order is the
        #: concept order: each aspect, then its parent if not yet seen.
        self._parent: Dict[str, Optional[str]] = {}
        for concept in lexicon.aspects.values():
            self._parent.setdefault(concept.name, None)
            if concept.parent is not None:
                self._parent.setdefault(concept.parent, None)
                self._parent[concept.name] = concept.parent
        roots = [name for name, parent in self._parent.items() if parent is None]
        if len(roots) != 1:
            raise ValueError(f"taxonomy must have exactly one root, found {roots}")
        self.root = roots[0]
        self._depth: Dict[str, int] = {}
        for name in self._parent:
            chain = [name]
            while chain[-1] != self.root:
                if len(chain) > len(self._parent):
                    raise ValueError(f"taxonomy has a cycle above {name!r}")
                chain.append(self._parent[chain[-1]])
            self._depth[name] = len(chain) - 1
        self._surface_index = lexicon.aspect_surface_index()
        #: stable concept ordering for the vectorized kernel's pair table.
        self._concepts: List[str] = list(self._parent)
        self._concept_index: Dict[str, int] = {c: i for i, c in enumerate(self._concepts)}
        self._pair_table: Optional[np.ndarray] = None
        self._pair_table_padded: Optional[np.ndarray] = None

    # ---------------------------------------------------------------- lookup

    def concept_of(self, surface: str) -> Optional[str]:
        """Concept name for a surface form (``'pizza'`` → ``'pizza'`` concept)."""
        return self._surface_index.get(surface.lower())

    def depth(self, concept: str) -> int:
        """Distance from the root (root itself has depth 0)."""
        return self._depth[concept]

    def ancestors_with_self(self, concept: str) -> List[str]:
        """Path from ``concept`` up to the root, inclusive."""
        path = [concept]
        while path[-1] != self.root:
            path.append(self._parent[path[-1]])
        return path

    def lowest_common_ancestor(self, a: str, b: str) -> str:
        """The deepest concept that is an ancestor of both ``a`` and ``b``."""
        ancestors_a = set(self.ancestors_with_self(a))
        for node in self.ancestors_with_self(b):
            if node in ancestors_a:
                return node
        return self.root

    @property
    def concepts(self) -> List[str]:
        """All concept names in the table ordering used by the kernel."""
        return list(self._concepts)

    def concept_index(self, concept: str) -> int:
        """Integer id of a concept (row/column into :meth:`pair_table`)."""
        return self._concept_index[concept]

    # ------------------------------------------------------------ similarity

    def pair_table(self) -> np.ndarray:
        """Full Wu–Palmer table over all concepts, computed once and cached.

        Memoizes similarity per *concept pair* rather than per surface-form
        pair: every surface resolving to the same concept shares one entry.
        """
        if self._pair_table is None:
            n = len(self._concepts)
            table = np.ones((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    table[i, j] = table[j, i] = self.wu_palmer(self._concepts[i], self._concepts[j])
            self._pair_table = table
        return self._pair_table

    def pair_table_padded(self) -> np.ndarray:
        """:meth:`pair_table` with a zero row/column appended.

        Unknown concepts are encoded as id ``-1``; indexing the padded table
        with ``-1`` lands on the zero row, so unknown aspects score 0 without
        any masking.
        """
        if self._pair_table_padded is None:
            self._pair_table_padded = np.pad(self.pair_table(), ((0, 1), (0, 1)))
        return self._pair_table_padded

    def wu_palmer(self, a: str, b: str) -> float:
        """Wu–Palmer similarity between two concepts, in (0, 1]."""
        if a not in self._parent or b not in self._parent:
            raise KeyError(f"unknown concepts: {a!r}, {b!r}")
        lca = self.lowest_common_ancestor(a, b)
        denom = self.depth(a) + self.depth(b)
        if denom == 0:
            return 1.0  # both are the root
        return 2.0 * self.depth(lca) / denom

    def surface_similarity(self, surface_a: str, surface_b: str) -> float:
        """Wu–Palmer similarity between two aspect *surface forms*.

        Unknown surfaces fall back to exact-match semantics (1.0 if equal
        strings, else 0.0) so the function is total.
        """
        if surface_a.lower() == surface_b.lower():
            return 1.0
        concept_a = self.concept_of(surface_a)
        concept_b = self.concept_of(surface_b)
        if concept_a is None or concept_b is None:
            return 0.0
        if concept_a == concept_b:
            return 1.0
        return self.wu_palmer(concept_a, concept_b)
