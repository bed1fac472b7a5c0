"""Corpus-wide batched extraction engine (the fast path behind ingest).

``Saccs.ingest_reviews`` used to hand the extractor one review at a time:
every review paid one BERT forward (padded to its own longest sentence) and
one Python Viterbi loop per sentence.  This module restructures the whole
extraction pass around the corpus instead of the review:

1. **Flatten + dedupe + bucket** — all sentences across all
   entities/reviews are flattened into one stream, and each distinct token
   sequence is kept once (review corpora repeat short sentences: 1,451
   distinct of 1,815 in the end-to-end benchmark's corpus); the distinct
   sentences are stably sorted by token length, and consecutive runs of up
   to :data:`BUCKET_SENTENCES` form *length buckets*, so each encoder
   forward is a large batch padded only to its bucket's max length
   (near-zero padding waste) instead of many tiny ragged batches.  Every
   repeat of a sentence gets the tags of its one tagged and paired copy.
2. **Batch decode** — each bucket's emissions go through the vectorized
   batch Viterbi (:meth:`repro.nn.crf.LinearChainCRF.decode_batch`): one
   ``(B, T, L)`` max-plus recurrence instead of a per-sentence Python loop.
3. **Pairing** — the pairing stage (parse trees + heuristics /
   classifier) runs serially over the tagged sentences in stream order,
   the same code the sequential extractor runs per sentence.
4. **Incremental re-extraction** — a plain ``dict`` memo from a content
   hash of each review's sentence tokens to its tags.  Each corpus pass
   (``Saccs.ingest_reviews``, ``Saccs.prepare_rebuild`` / ``/admin/reindex``
   with ``full=true``) tags only the reviews the memo lacks, then replaces
   the memo whole with the reviews it just read: it holds exactly the
   current corpus, so it needs no eviction, and a pass reads it once and
   assigns it once, so it needs no lock.  An edited review misses and is
   re-tagged; an unchanged one is answered from the memo.

Equivalence guarantee: per-sentence tagging is batch-invariant (padding is
masked all the way through BERT, the BiLSTM and the CRF), and pairing plus
per-review dedup run exactly the sequential code — so the engine's tag list
per review is **identical** (same tags, same order) to
``TagExtractor.extract_review``.  The integration tests assert this on a
seeded world.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.extractor import TagExtractor, _pairs_to_tags
from repro.core.tags import SubjectiveTag
from repro.data.schema import Review
from repro.text.labels import labels_to_spans
from repro.utils.locks import make_lock
from repro.utils.timing import StageTimings

__all__ = ["BUCKET_SENTENCES", "ExtractionEngine", "review_key"]

#: sentences per length bucket — the encoder forward's batch size.
BUCKET_SENTENCES = 64


def review_key(review: Review) -> str:
    """Content hash of the review's sentence token streams.

    Deliberately not the review id: an edited review misses (its content
    changed), an unchanged one hits even under a new id, and byte-identical
    duplicate reviews share one entry.
    """
    digest = hashlib.sha256()
    for sentence in review.sentences:
        digest.update("\x1f".join(sentence.tokens).encode("utf-8"))
        digest.update(b"\x1e")
    return digest.hexdigest()


class ExtractionEngine:
    """Bucketed, memoised driver around one extractor.

    Works with both extractor kinds: the neural :class:`TagExtractor` gets
    the full bucketed tagging + pairing pipeline; the
    :class:`~repro.core.extractor.OracleExtractor` (no encoder to batch)
    keeps its per-review gold read but still skips unchanged reviews.
    ``precision`` selects the tagger's tape-free fused encode path:
    ``"float64"`` is bitwise-identical to the autograd forward,
    ``"float32"`` trades tolerance-bounded emission error for speed (see
    :mod:`repro.nn.infer`).
    """

    def __init__(
        self,
        extractor,
        precision: str = "float64",
        metrics=None,
        timings: Optional[StageTimings] = None,
    ):
        from repro.nn.infer import PRECISIONS

        if precision not in PRECISIONS:
            raise ValueError(f"encoder_precision must be one of {PRECISIONS}, got {precision!r}")
        self.extractor = extractor
        self.precision = precision
        #: anything with ``incr(name, amount=1)`` — typically the serving
        #: :class:`~repro.serve.metrics.MetricsRegistry` (duck-typed here to
        #: keep ``repro.core`` import-independent of ``repro.serve``).
        self.metrics = metrics
        # The "extract." prefix mirrors every stage timing into the active
        # request trace as a span (no-op when untraced), so serving span
        # trees show encode/decode/pair without instrumenting the tagger.
        self.timings = timings or StageTimings(span_prefix="extract.")
        #: review content hash → tags, for exactly the reviews of the last
        #: corpus pass (see :meth:`extract_corpus`).
        self.memo: Dict[str, Tuple[SubjectiveTag, ...]] = {}
        #: serialises tagger access: the neural tagger's eval/train flip is
        #: shared state, and a background index rebuild extracts the corpus
        #: concurrently with served utterances and session turns.  Never
        #: held while any other lock is taken.
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
        :data:`BUCKET_SENTENCES`, predicted one bucket per encoder forward,
        and scattered back to their original slots.
        """
        order = sorted(range(len(sentences)), key=lambda i: len(sentences[i]))
        labels: List[Optional[List[str]]] = [None] * len(sentences)
        cap = BUCKET_SENTENCES
        tagger = self.extractor.tagger
        precision = self.precision
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

    # ------------------------------------------------------------------ corpus

    def extract_corpus(
        self, entity_reviews: Sequence[Tuple[str, Sequence[Review]]]
    ) -> List[Tuple[str, List[List[SubjectiveTag]]]]:
        """Per-entity per-review tag lists from one corpus pass.

        Reviews the memo holds (by :func:`review_key`) are answered from it;
        the rest are tagged together, and the memo is then replaced whole
        by the reviews this pass read.  Identical (same tags, same order)
        to calling ``extractor.extract_review`` once per review.
        """
        memo = self.memo
        flat = [review for _, reviews in entity_reviews for review in reviews]
        keys = [review_key(review) for review in flat]
        tags: List[Optional[Tuple[SubjectiveTag, ...]]] = [memo.get(key) for key in keys]
        misses = [slot for slot, found in enumerate(tags) if found is None]
        if misses:
            missed = [flat[slot] for slot in misses]
            if isinstance(self.extractor, TagExtractor):
                extracted = self._extract_batched(missed)
            else:
                extracted = [self.extractor.extract_review(review) for review in missed]
            for slot, review_tags in zip(misses, extracted):
                tags[slot] = tuple(review_tags)
        self.memo = dict(zip(keys, tags))  # type: ignore[arg-type]
        out: List[Tuple[str, List[List[SubjectiveTag]]]] = []
        start = 0
        for entity_id, reviews in entity_reviews:
            stop = start + len(reviews)
            out.append((entity_id, [list(t) for t in tags[start:stop]]))  # type: ignore[arg-type]
            start = stop
        return out

    def _extract_batched(self, reviews: Sequence[Review]) -> List[List[SubjectiveTag]]:
        """Bucketed tagging + pairing for reviews the memo lacks.

        Tagging and pairing are pure functions of a sentence's tokens, so
        each distinct token tuple is tagged and paired once, and its tags
        are shared by every review sentence that repeats it.  Per review,
        sentence order is kept and dedup keeps the first occurrence — the
        exact semantics of ``TagExtractor.extract_review``.
        """
        sentences = [[tuple(s.tokens) for s in review.sentences] for review in reviews]
        distinct = list(dict.fromkeys(s for per_review in sentences for s in per_review))
        labels = self._tag_sentences(distinct)
        tags_of = dict(zip(distinct, self._pair_sentences(distinct, labels)))
        assembled: List[List[SubjectiveTag]] = []
        for per_review in sentences:
            review_tags: List[SubjectiveTag] = []
            seen: Set[SubjectiveTag] = set()
            for sentence in per_review:
                for tag in tags_of[sentence]:
                    if tag not in seen:
                        seen.add(tag)
                        review_tags.append(tag)
            assembled.append(review_tags)
        return assembled

    # --------------------------------------------------------------- utterances

    def extract_token_lists(
        self, token_lists: Sequence[Sequence[str]]
    ) -> List[List[SubjectiveTag]]:
        """Bucketed extraction for raw token lists (utterances, session turns).

        No cache here: served utterances are almost all distinct, and a
        repeated one is answered by the runtime's ranking cache after
        extraction.  ``SaccsRuntime`` calls this on the request thread for
        each subjective ``/search``, ``ConversationSession`` for each
        subjective turn and ``Saccs.answer`` for its utterance, so all three
        run at the configured encoder precision under the tagger lock and
        report into the engine's counters and spans.
        """
        if not isinstance(self.extractor, TagExtractor):
            raise TypeError("utterance extraction needs a neural TagExtractor")
        if not token_lists:
            return []
        sentences = [list(tokens) for tokens in token_lists]
        labels = self._tag_sentences(sentences)
        return self._pair_sentences(sentences, labels)
