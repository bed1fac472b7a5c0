"""Unit tests for the batched extraction engine (fake tagger — no BERT).

The neural equivalence path is covered by
``tests/integration/test_extraction_engine.py``; these tests pin the
engine's mechanics — bucketing determinism, parallel-pairing ordering, the
content-hash cache, and counters — with a deterministic stub extractor.
"""

import pytest

from repro.core.extraction_engine import (
    ExtractionCache,
    ExtractionEngine,
    ExtractionEngineConfig,
)
from repro.core.extractor import HeuristicPairer, TagExtractor
from repro.core.heuristics import WordDistanceHeuristic
from repro.core.tags import SubjectiveTag
from repro.data.schema import LabeledSentence, Review
from repro.serve.metrics import MetricsRegistry
from repro.utils.timing import StageTimings

ASPECTS = {"food", "staff", "pizza", "service"}
OPINIONS = {"delicious", "friendly", "bland", "slow"}


class FakeTagger:
    """Deterministic per-token lexicon tagger; counts predict batches."""

    training = False

    def __init__(self):
        self.batches = []
        self.precisions = []

    def eval(self):
        return self

    def train(self):
        return self

    def predict(self, sentences, timings=None, precision=None):
        self.batches.append([len(s) for s in sentences])
        self.precisions.append(precision)
        if timings is not None:
            with timings.span("encode"):
                pass
            with timings.span("decode"):
                pass
        out = []
        for tokens in sentences:
            labels = []
            for token in tokens:
                if token in ASPECTS:
                    labels.append("B-AS")
                elif token in OPINIONS:
                    labels.append("B-OP")
                else:
                    labels.append("O")
            out.append(labels)
        return out


def fake_extractor() -> TagExtractor:
    return TagExtractor(FakeTagger(), HeuristicPairer([WordDistanceHeuristic("aspects")]))


def sentence(text: str) -> LabeledSentence:
    tokens = text.split()
    return LabeledSentence(tokens=tokens, labels=["O"] * len(tokens))


def review(review_id: str, *texts: str) -> Review:
    return Review(review_id=review_id, entity_id="e1", sentences=[sentence(t) for t in texts])


REVIEWS = [
    review("r1", "the food is delicious", "staff was friendly and kind"),
    review("r2", "bland pizza", "truly the service is slow today believe me"),
    review("r3", "delicious food delicious pizza"),
    review("r4", "the food is delicious", "staff was friendly and kind"),  # duplicate of r1
]


class TestBucketedExtraction:
    def test_matches_sequential_extract_review(self):
        extractor = fake_extractor()
        engine = ExtractionEngine(extractor, ExtractionEngineConfig(batch_sentences=2))
        expected = [extractor.extract_review(r) for r in REVIEWS]
        assert engine.extract_reviews(REVIEWS) == expected

    def test_buckets_group_by_length(self):
        extractor = fake_extractor()
        engine = ExtractionEngine(
            extractor, ExtractionEngineConfig(batch_sentences=3, cache_enabled=False)
        )
        engine.extract_reviews(REVIEWS)
        batches = extractor.tagger.batches
        assert all(len(batch) <= 3 for batch in batches)
        # Within every bucket the lengths are sorted (stream sorted by length,
        # then chunked), and buckets are non-decreasing across the stream.
        flattened = [length for batch in batches for length in batch]
        assert flattened == sorted(flattened)

    def test_extract_corpus_splits_per_entity(self):
        extractor = fake_extractor()
        engine = ExtractionEngine(extractor, ExtractionEngineConfig(batch_sentences=2))
        out = engine.extract_corpus([("a", REVIEWS[:2]), ("b", REVIEWS[2:]), ("c", [])])
        assert [entity for entity, _ in out] == ["a", "b", "c"]
        assert out[0][1] == [extractor.extract_review(r) for r in REVIEWS[:2]]
        assert out[2][1] == []

    def test_extract_token_lists_matches_extract(self):
        extractor = fake_extractor()
        engine = ExtractionEngine(extractor, ExtractionEngineConfig(batch_sentences=2))
        utterances = [["delicious", "food"], ["slow", "service", "today"], ["nothing"]]
        assert engine.extract_token_lists(utterances) == [
            extractor.extract(u) for u in utterances
        ]

    def test_timings_record_all_stages(self):
        engine = ExtractionEngine(fake_extractor(), ExtractionEngineConfig(batch_sentences=2))
        engine.extract_reviews(REVIEWS)
        stages = engine.timings.as_dict()
        assert {"encode", "decode", "pair"} <= set(stages)
        assert stages["pair"]["calls"] == 1


class TestExtractionCache:
    def test_warm_rerun_hits_everything(self):
        engine = ExtractionEngine(fake_extractor(), ExtractionEngineConfig())
        first = engine.extract_reviews(REVIEWS[:3])
        assert engine.cache.misses == 3 and engine.cache.hits == 0
        second = engine.extract_reviews(REVIEWS[:3])
        assert second == first
        assert engine.cache.hits == 3

    def test_content_hash_keys_on_text_not_id(self):
        engine = ExtractionEngine(fake_extractor(), ExtractionEngineConfig())
        engine.extract_reviews([REVIEWS[0]])
        renamed = Review(
            review_id="different-id",
            entity_id="e9",
            sentences=REVIEWS[0].sentences,
        )
        engine.extract_reviews([renamed])
        assert engine.cache.hits == 1

    def test_edited_review_misses_and_retags(self):
        engine = ExtractionEngine(fake_extractor(), ExtractionEngineConfig())
        engine.extract_reviews(REVIEWS[:3])
        edited = review("r2", "bland pizza", "the service is friendly now")
        out = engine.extract_reviews([REVIEWS[0], edited, REVIEWS[2]])
        assert engine.cache.hits == 2 and engine.cache.misses == 4
        assert SubjectiveTag("service", "friendly") in out[1]

    def test_metrics_counters_flow_to_registry(self):
        metrics = MetricsRegistry()
        engine = ExtractionEngine(fake_extractor(), ExtractionEngineConfig(), metrics=metrics)
        engine.extract_reviews(REVIEWS[:2])
        engine.extract_reviews(REVIEWS[:2])
        assert metrics.counter("extract.cache.miss") == 2
        assert metrics.counter("extract.cache.hit") == 2
        assert metrics.snapshot()["ratios"]["extract.cache"] == pytest.approx(0.5)

    def test_lru_eviction_respects_capacity(self):
        cache = ExtractionCache(capacity=2)
        keys = [ExtractionCache.key_for(r) for r in REVIEWS[:3]]
        for key in keys:
            cache.put(key, ())
        assert len(cache) == 2
        assert cache.get(keys[0]) is None  # oldest evicted
        assert cache.get(keys[2]) is not None

    def test_cache_disabled_counts_nothing(self):
        metrics = MetricsRegistry()
        engine = ExtractionEngine(
            fake_extractor(), ExtractionEngineConfig(cache_enabled=False), metrics=metrics
        )
        engine.extract_reviews(REVIEWS[:2])
        assert engine.cache is None
        assert metrics.counter("extract.cache.miss") == 0
        assert metrics.counter("extract.cache.hit") == 0


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ExtractionEngineConfig(batch_sentences=0)
        with pytest.raises(ValueError):
            ExtractionEngineConfig(cache_capacity=0)
        with pytest.raises(ValueError):
            ExtractionCache(capacity=0)

    def test_oracle_extractor_cannot_tag_utterances(self):
        from repro.core.extractor import OracleExtractor

        engine = ExtractionEngine(OracleExtractor())
        with pytest.raises(TypeError):
            engine.extract_token_lists([["hello"]])


class TestStageTimings:
    def test_spans_accumulate(self):
        spans = StageTimings()
        with spans.span("encode"):
            pass
        with spans.span("encode"):
            pass
        snapshot = spans.as_dict()
        assert snapshot["encode"]["calls"] == 2
        assert snapshot["encode"]["seconds"] >= 0.0
        spans.reset()
        assert spans.as_dict() == {}
