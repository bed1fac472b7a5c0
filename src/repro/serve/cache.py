"""Two-level generational cache for the serving runtime.

Level 1 maps a *normalised utterance* to its extracted tags (saves a tagger
forward pass); level 2 maps a *frozen tag query* to its ranking (saves the
index lookup + Algorithm 1 entirely).  Both levels stamp every entry with
the :attr:`~repro.core.saccs.Saccs.index_generation` it was computed under:
a reindex bumps the generation, so stale entries miss deterministically —
no flush races, no serving a pre-reindex ranking after the index moved.

Keys are content fingerprints from :func:`repro.utils.caching.fingerprint`,
so arbitrarily long tag lists hash to fixed-size keys.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Optional, Sequence, Tuple

from repro.obs import tracing as obs
from repro.utils.caching import fingerprint
from repro.utils.locks import make_lock

__all__ = ["GenerationalCache", "ServingCache"]

_MISS = object()

#: closed (level, outcome) → counter-name map: the two cache levels each get
#: exactly two counters, spelled out here so metric cardinality is bounded
#: by construction (see the metric-name-literal lint rule).
_CACHE_COUNTERS = {
    ("cache.tags", True): "cache.tags.hit",
    ("cache.tags", False): "cache.tags.miss",
    ("cache.ranking", True): "cache.ranking.hit",
    ("cache.ranking", False): "cache.ranking.miss",
}


class GenerationalCache:
    """A thread-safe LRU map whose entries expire by index generation.

    ``get`` misses (and drops the entry) when the stored generation differs
    from the caller's current one — invalidation is lazy and exact.  A
    ``max_size`` of 0 disables the cache entirely (every get is a miss,
    every put a no-op), which isolates scheduler effects from cache
    effects.
    """

    def __init__(self, max_size: int = 4096):
        if max_size < 0:
            raise ValueError("max_size must be >= 0")
        self.max_size = max_size
        self._lock = make_lock("serve.cache")
        self._entries: "OrderedDict[str, Tuple[int, Any]]" = OrderedDict()

    def get(self, key: str, generation: int) -> Any:
        """The cached value, or ``None`` on miss / generation mismatch."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            stored_generation, value = entry
            if stored_generation != generation:
                del self._entries[key]
                return None
            self._entries.move_to_end(key)
            return value

    def put(self, key: str, generation: int, value: Any) -> None:
        with self._lock:
            if self.max_size == 0:
                return
            self._entries[key] = (generation, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_size:
                self._entries.popitem(last=False)

    def purge_older_than(self, generation: int) -> int:
        """Eagerly drop entries from generations before ``generation``."""
        with self._lock:
            stale = [
                key
                for key, (stored_generation, _) in self._entries.items()
                if stored_generation < generation
            ]
            for key in stale:
                del self._entries[key]
            return len(stale)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class ServingCache:
    """The runtime's two cache levels plus their metrics wiring.

    ``metrics`` (a :class:`~repro.serve.metrics.MetricsRegistry`, optional)
    receives ``cache.tags.hit/miss`` and ``cache.ranking.hit/miss``
    counters, which the registry rolls up into hit ratios.
    """

    def __init__(self, max_size: int = 4096, metrics=None):
        self.tags = GenerationalCache(max_size)
        self.rankings = GenerationalCache(max_size)
        self.metrics = metrics

    # ----------------------------------------------- level 1: utterance→tags

    @staticmethod
    def _utterance_key(utterance: str) -> str:
        return fingerprint(["utterance", " ".join(utterance.lower().split())])

    def tags_for(self, utterance: str, generation: int):
        value = self.tags.get(self._utterance_key(utterance), generation)
        self._count("cache.tags", value is not None)
        return value

    def put_tags(self, utterance: str, generation: int, tags) -> None:
        self.tags.put(self._utterance_key(utterance), generation, tags)

    # ----------------------------------------------- level 2: tagset→ranking

    @staticmethod
    def _ranking_key(
        tag_texts: Sequence[str],
        top_k: Optional[int],
        api_entity_ids: Optional[Sequence[str]] = None,
    ) -> str:
        # the API slot restriction is part of the query identity: the same
        # tags over different candidate sets rank differently.
        api = list(api_entity_ids) if api_entity_ids is not None else None
        return fingerprint(["ranking", list(tag_texts), top_k, api])

    def ranking_for(
        self,
        tag_texts: Sequence[str],
        top_k: Optional[int],
        generation: int,
        api_entity_ids: Optional[Sequence[str]] = None,
    ):
        key = self._ranking_key(tag_texts, top_k, api_entity_ids)
        value = self.rankings.get(key, generation)
        self._count("cache.ranking", value is not None)
        return value

    def put_ranking(
        self,
        tag_texts: Sequence[str],
        top_k: Optional[int],
        generation: int,
        ranking,
        api_entity_ids: Optional[Sequence[str]] = None,
    ) -> None:
        key = self._ranking_key(tag_texts, top_k, api_entity_ids)
        self.rankings.put(key, generation, ranking)

    # ------------------------------------------------------------- lifecycle

    def sweep(self, generation: int) -> int:
        """Eager sweep of pre-``generation`` entries after a reindex.

        Must run strictly **after** the index swap has bumped the
        generation: sweeping first would leave a window where a racing
        worker, still computing against the pre-swap index, re-inserts an
        old-generation entry *after* the sweep and the memory never gets
        reclaimed.  Correctness never depends on the sweep — every read
        checks the stored generation against the caller's current one — so
        running late is safe where running early is not.
        """
        return self.tags.purge_older_than(generation) + self.rankings.purge_older_than(
            generation
        )

    def invalidate_before(self, generation: int) -> int:
        """Back-compat alias for :meth:`sweep`."""
        return self.sweep(generation)

    def _count(self, base: str, hit: bool) -> None:
        if self.metrics is not None:
            self.metrics.incr(_CACHE_COUNTERS[(base, hit)])
        # Stamp the lookup outcome onto the active request trace (no-op
        # untraced), so a span tree shows which cache level answered.
        obs.annotate(**{base: "hit" if hit else "miss"})
