"""Corpus-wide batched extraction engine (the fast path behind ingest).

``Saccs.ingest_reviews`` used to hand the extractor one review at a time:
every review paid one BERT forward (padded to its own longest sentence) and
one Python Viterbi loop per sentence.  This module restructures the whole
extraction pass around the corpus instead of the review:

1. **Flatten + bucket** — all sentences across all entities/reviews are
   flattened into one stream and stably sorted by token length; consecutive
   runs of up to ``batch_sentences`` sentences form *length buckets*, so
   each encoder forward is a large batch padded only to its bucket's max
   length (near-zero padding waste) instead of many tiny ragged batches.
2. **Batch decode** — each bucket's emissions go through the vectorized
   batch Viterbi (:meth:`repro.nn.crf.LinearChainCRF.decode_batch`): one
   ``(B, T, L)`` max-plus recurrence instead of a per-sentence Python loop.
3. **Pairing** — the pairing stage (parse trees + heuristics /
   classifier) runs serially over the tagged sentences in stream order,
   the same code the sequential extractor runs per sentence.
4. **Incremental re-extraction** — an LRU :class:`ExtractionCache` keyed by
   a content hash of each review's sentence tokens.  Re-ingesting after a
   small corpus change (``Saccs.rebuild_index`` / ``/admin/reindex`` with
   ``full=true``) only re-tags new or edited reviews; unchanged reviews are
   served from the cache.  Hit/miss counters flow into a bound
   ``MetricsRegistry`` (``extract.cache.hit`` / ``extract.cache.miss``, so
   ``/metrics`` rolls them into a ratio) and are also kept as plain ints on
   the cache for metrics-free callers.

Equivalence guarantee: per-sentence tagging is batch-invariant (padding is
masked all the way through BERT, the BiLSTM and the CRF), and pairing plus
per-review dedup run exactly the sequential code — so the engine's tag list
per review is **identical** (same tags, same order) to
``TagExtractor.extract_review``.  The integration tests assert this on a
seeded world.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.extractor import OracleExtractor, TagExtractor, _pairs_to_tags
from repro.core.tags import SubjectiveTag
from repro.data.schema import Review
from repro.text.labels import labels_to_spans
from repro.utils.locks import make_lock
from repro.utils.timing import StageTimings

__all__ = ["ExtractionEngineConfig", "ExtractionCache", "ExtractionEngine"]


@dataclass
class ExtractionEngineConfig:
    """Knobs for the batched extraction pass."""

    #: sentences per length bucket — the encoder forward's batch size.
    batch_sentences: int = 64
    #: cache extracted tags per review content hash (incremental reingest).
    cache_enabled: bool = True
    #: retained cache entries (reviews); oldest-used entries are evicted.
    cache_capacity: int = 200_000
    #: precision for the tagger's tape-free fused encode path:
    #: ``"float64"`` is bitwise-identical to the autograd forward,
    #: ``"float32"`` trades tolerance-bounded emission error for speed
    #: (see :mod:`repro.nn.infer`).
    encoder_precision: str = "float64"

    def __post_init__(self):
        if self.batch_sentences < 1:
            raise ValueError("batch_sentences must be >= 1")
        if self.cache_capacity < 1:
            raise ValueError("cache_capacity must be >= 1")
        from repro.nn.infer import PRECISIONS

        if self.encoder_precision not in PRECISIONS:
            raise ValueError(
                f"encoder_precision must be one of {PRECISIONS}, got {self.encoder_precision!r}"
            )


class ExtractionCache:
    """LRU map from review content hash → extracted tag tuple.

    The key is a hash of the review's sentence tokens only — deliberately
    not the review id — so an edited review misses (its content changed)
    while an unchanged review hits even if the surrounding corpus was
    re-shuffled, and byte-identical duplicate reviews share one entry.
    """

    def __init__(self, capacity: int = 200_000):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = make_lock("core.extract.cache")
        self._entries: "OrderedDict[str, Tuple[SubjectiveTag, ...]]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key_for(review: Review) -> str:
        """Content hash of the review's sentence token streams."""
        digest = hashlib.sha256()
        for sentence in review.sentences:
            digest.update("\x1f".join(sentence.tokens).encode("utf-8"))
            digest.update(b"\x1e")
        return digest.hexdigest()

    def get(self, key: str) -> Optional[Tuple[SubjectiveTag, ...]]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: str, tags: Sequence[SubjectiveTag]) -> None:
        with self._lock:
            self._entries[key] = tuple(tags)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class ExtractionEngine:
    """Bucketed, cache-aware driver around one extractor.

    Works with both extractor kinds: the neural :class:`TagExtractor` gets
    the full bucketed tagging + pairing pipeline; the
    :class:`OracleExtractor` (no encoder to batch) keeps its per-review
    gold read but still benefits from the cache on reingest.
    """

    def __init__(
        self,
        extractor,
        config: Optional[ExtractionEngineConfig] = None,
        metrics=None,
        timings: Optional[StageTimings] = None,
    ):
        self.extractor = extractor
        self.config = config or ExtractionEngineConfig()
        #: anything with ``incr(name, amount=1)`` — typically the serving
        #: :class:`~repro.serve.metrics.MetricsRegistry` (duck-typed here to
        #: keep ``repro.core`` import-independent of ``repro.serve``).
        self.metrics = metrics
        # The "extract." prefix mirrors every stage timing into the active
        # request trace as a span (no-op when untraced), so serving span
        # trees show encode/decode/pair without instrumenting the tagger.
        self.timings = timings or StageTimings(span_prefix="extract.")
        self.cache: Optional[ExtractionCache] = (
            ExtractionCache(self.config.cache_capacity) if self.config.cache_enabled else None
        )
        #: serialises tagger access: the neural tagger's eval/train flip and
        #: fused-weight scratch buffers are shared state, and a background
        #: index rebuild extracts the corpus concurrently with serving
        #: micro-batches.  Never held while any other lock is taken.
        self._tagger_lock = make_lock("core.extract.tagger")

    def bind_metrics(self, metrics) -> None:
        """Attach a counter sink (e.g. the serving ``MetricsRegistry``)."""
        self.metrics = metrics

    def _incr(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            # repro: disable=metric-name-literal — nil-guard forwarder; every
            # call site passes a literal, which the rule checks at those sites.
            self.metrics.incr(name, amount)

    # ------------------------------------------------------------------ tagging

    def _tag_sentences(self, sentences: Sequence[Sequence[str]]) -> List[List[str]]:
        """Per-sentence IOB labels via length-bucketed batch prediction.

        Sentences are stably sorted by token length, chunked into buckets of
        ``batch_sentences``, predicted one bucket per encoder forward, and
        scattered back to their original slots.
        """
        order = sorted(range(len(sentences)), key=lambda i: len(sentences[i]))
        labels: List[Optional[List[str]]] = [None] * len(sentences)
        cap = self.config.batch_sentences
        tagger = self.extractor.tagger
        precision = self.config.encoder_precision
        with self._tagger_lock:
            return self._tag_sentences_locked(order, labels, cap, tagger, precision, sentences)

    def _tag_sentences_locked(self, order, labels, cap, tagger, precision, sentences):
        # Hold eval mode across the whole bucket loop: each predict() on a
        # train-mode tagger would otherwise restore train mode on exit,
        # which bumps the weights version and forces a fresh fused-weight
        # export per bucket instead of one per ingest pass.
        was_training = tagger.training
        if was_training:
            tagger.eval()
        try:
            for start in range(0, len(order), cap):
                bucket = order[start : start + cap]
                predicted = tagger.predict(
                    [list(sentences[i]) for i in bucket],
                    timings=self.timings,
                    precision=precision,
                )
                for slot, seq in zip(bucket, predicted):
                    labels[slot] = seq
                self._incr("extract.batches")
                self._incr("extract.sentences", len(bucket))
        finally:
            if was_training:
                tagger.train()
        return labels  # type: ignore[return-value]

    # ------------------------------------------------------------------ pairing

    def _pair_sentences(
        self,
        sentences: Sequence[Sequence[str]],
        labels: Sequence[Sequence[str]],
    ) -> List[List[SubjectiveTag]]:
        """Pairing stage over tagged sentences, in sentence order."""
        pairer = self.extractor.pairer

        def pair_one(i: int) -> List[SubjectiveTag]:
            tokens = sentences[i]
            aspect_spans, opinion_spans = labels_to_spans(labels[i])
            return _pairs_to_tags(tokens, pairer.pair(tokens, aspect_spans, opinion_spans))

        total = len(sentences)
        with self.timings.span("pair"):
            return [pair_one(i) for i in range(total)]

    # ------------------------------------------------------------------ reviews

    def extract_reviews(self, reviews: Sequence[Review]) -> List[List[SubjectiveTag]]:
        """Tag lists for a flat review stream (cache → bucket → pair → dedup).

        Identical (same tags, same order) to calling
        ``extractor.extract_review`` once per review.
        """
        results: List[Optional[List[SubjectiveTag]]] = [None] * len(reviews)
        miss_slots: List[int] = []
        keys: List[Optional[str]] = []
        for slot, review in enumerate(reviews):
            if self.cache is not None:
                key = ExtractionCache.key_for(review)
                keys.append(key)
                cached = self.cache.get(key)
                if cached is not None:
                    self._incr("extract.cache.hit")
                    results[slot] = list(cached)
                    continue
                self._incr("extract.cache.miss")
            else:
                keys.append(None)
            miss_slots.append(slot)
        if miss_slots:
            if isinstance(self.extractor, TagExtractor):
                self._extract_misses_batched(reviews, miss_slots, results)
            else:
                for slot in miss_slots:
                    results[slot] = self.extractor.extract_review(reviews[slot])
            if self.cache is not None:
                for slot in miss_slots:
                    self.cache.put(keys[slot], results[slot])  # type: ignore[arg-type]
        return results  # type: ignore[return-value]

    def _extract_misses_batched(
        self,
        reviews: Sequence[Review],
        miss_slots: Sequence[int],
        results: List[Optional[List[SubjectiveTag]]],
    ) -> None:
        """Bucketed tagging + pairing for the cache-missing reviews."""
        sentences: List[List[str]] = []
        owner: List[int] = []
        for slot in miss_slots:
            for sentence in reviews[slot].sentences:
                sentences.append(list(sentence.tokens))
                owner.append(slot)
        labels = self._tag_sentences(sentences)
        per_sentence = self._pair_sentences(sentences, labels)
        # Reassemble per review: sentence order is preserved (owner runs are
        # contiguous), dedup keeps the first occurrence — the exact
        # semantics of ``TagExtractor.extract_review``.
        assembled: Dict[int, List[SubjectiveTag]] = {slot: [] for slot in miss_slots}
        seen: Dict[int, Set[SubjectiveTag]] = {slot: set() for slot in miss_slots}
        for slot, tags in zip(owner, per_sentence):
            bucket_seen = seen[slot]
            bucket_tags = assembled[slot]
            for tag in tags:
                if tag not in bucket_seen:
                    bucket_seen.add(tag)
                    bucket_tags.append(tag)
        for slot in miss_slots:
            results[slot] = assembled[slot]

    def extract_corpus(
        self, entity_reviews: Sequence[Tuple[str, Sequence[Review]]]
    ) -> List[Tuple[str, List[List[SubjectiveTag]]]]:
        """Per-entity per-review tag lists with one corpus-wide flat pass."""
        flat: List[Review] = []
        spans: List[Tuple[str, int, int]] = []
        for entity_id, reviews in entity_reviews:
            spans.append((entity_id, len(flat), len(flat) + len(reviews)))
            flat.extend(reviews)
        all_tags = self.extract_reviews(flat)
        return [(entity_id, all_tags[lo:hi]) for entity_id, lo, hi in spans]

    # --------------------------------------------------------------- utterances

    def extract_token_lists(
        self, token_lists: Sequence[Sequence[str]]
    ) -> List[List[SubjectiveTag]]:
        """Bucketed extraction for raw token lists (utterance micro-batches).

        No cache here — the serving layer already caches per (utterance,
        generation).  Used by ``SaccsRuntime`` so the utterances of one
        micro-batch share encoder forwards.
        """
        if not isinstance(self.extractor, TagExtractor):
            raise TypeError("utterance extraction needs a neural TagExtractor")
        if not token_lists:
            return []
        sentences = [list(tokens) for tokens in token_lists]
        labels = self._tag_sentences(sentences)
        return self._pair_sentences(sentences, labels)
