"""Unit tests for the batched extraction engine (fake tagger — no BERT).

The neural equivalence path is covered by
``tests/integration/test_extraction_engine.py``; these tests pin the
engine's mechanics — bucketing determinism, ordering, the per-pass
content-hash memo, and counters — with a deterministic stub extractor.
"""

import pytest

from repro.core import extraction_engine
from repro.core.extraction_engine import ExtractionEngine, review_key
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


def flat(engine, reviews):
    """One corpus pass over ``reviews`` as a single entity's review list."""
    return engine.extract_corpus([("e1", reviews)])[0][1]


def sentences_tagged(extractor) -> int:
    return sum(len(batch) for batch in extractor.tagger.batches)


class TestBucketedExtraction:
    def test_matches_sequential_extract_review(self, monkeypatch):
        monkeypatch.setattr(extraction_engine, "BUCKET_SENTENCES", 2)
        extractor = fake_extractor()
        engine = ExtractionEngine(extractor)
        expected = [extractor.extract_review(r) for r in REVIEWS]
        assert flat(engine, REVIEWS) == expected

    def test_buckets_group_by_length(self, monkeypatch):
        monkeypatch.setattr(extraction_engine, "BUCKET_SENTENCES", 3)
        extractor = fake_extractor()
        engine = ExtractionEngine(extractor)
        flat(engine, REVIEWS)
        batches = extractor.tagger.batches
        assert all(len(batch) <= 3 for batch in batches)
        # Within every bucket the lengths are sorted (stream sorted by length,
        # then chunked), and buckets are non-decreasing across the stream.
        flattened = [length for batch in batches for length in batch]
        assert flattened == sorted(flattened)

    def test_extract_corpus_splits_per_entity(self, monkeypatch):
        monkeypatch.setattr(extraction_engine, "BUCKET_SENTENCES", 2)
        extractor = fake_extractor()
        engine = ExtractionEngine(extractor)
        out = engine.extract_corpus([("a", REVIEWS[:2]), ("b", REVIEWS[2:]), ("c", [])])
        assert [entity for entity, _ in out] == ["a", "b", "c"]
        assert out[0][1] == [extractor.extract_review(r) for r in REVIEWS[:2]]
        assert out[2][1] == []

    def test_extract_token_lists_matches_extract(self, monkeypatch):
        monkeypatch.setattr(extraction_engine, "BUCKET_SENTENCES", 2)
        extractor = fake_extractor()
        engine = ExtractionEngine(extractor)
        utterances = [["delicious", "food"], ["slow", "service", "today"], ["nothing"]]
        assert engine.extract_token_lists(utterances) == [
            extractor.extract(u) for u in utterances
        ]

    def test_timings_record_all_stages(self, monkeypatch):
        monkeypatch.setattr(extraction_engine, "BUCKET_SENTENCES", 2)
        engine = ExtractionEngine(fake_extractor())
        flat(engine, REVIEWS)
        stages = engine.timings.as_dict()
        assert {"encode", "decode", "pair"} <= set(stages)
        assert stages["pair"]["calls"] == 1

    def test_precision_reaches_the_tagger(self):
        extractor = fake_extractor()
        engine = ExtractionEngine(extractor, "float32")
        flat(engine, REVIEWS)
        engine.extract_token_lists([["delicious", "food"]])
        assert extractor.tagger.precisions and set(extractor.tagger.precisions) == {"float32"}


class TestExtractionCache:
    def test_warm_rerun_hits_everything(self):
        extractor = fake_extractor()
        engine = ExtractionEngine(extractor)
        first = flat(engine, REVIEWS[:3])
        tagged = sentences_tagged(extractor)
        assert tagged > 0
        second = flat(engine, REVIEWS[:3])
        assert second == first
        assert sentences_tagged(extractor) == tagged

    def test_content_hash_keys_on_text_not_id(self):
        extractor = fake_extractor()
        engine = ExtractionEngine(extractor)
        flat(engine, [REVIEWS[0]])
        renamed = Review(
            review_id="different-id",
            entity_id="e9",
            sentences=REVIEWS[0].sentences,
        )
        expected = [extractor.extract_review(REVIEWS[0])]
        batches = len(extractor.tagger.batches)
        assert flat(engine, [renamed]) == expected
        assert len(extractor.tagger.batches) == batches

    def test_edited_review_misses_and_retags(self):
        extractor = fake_extractor()
        engine = ExtractionEngine(extractor)
        flat(engine, REVIEWS[:3])
        edited = review("r2", "bland pizza", "the service is friendly now")
        batches = len(extractor.tagger.batches)
        out = flat(engine, [REVIEWS[0], edited, REVIEWS[2]])
        assert SubjectiveTag("service", "friendly") in out[1]
        # Only the edited review's sentences reach the tagger.
        retagged = [length for batch in extractor.tagger.batches[batches:] for length in batch]
        assert sorted(retagged) == sorted(len(s.tokens) for s in edited.sentences)

    def test_metrics_counters_flow_to_registry(self):
        metrics = MetricsRegistry()
        engine = ExtractionEngine(fake_extractor(), metrics=metrics)
        flat(engine, REVIEWS[:2])
        distinct = {tuple(s.tokens) for r in REVIEWS[:2] for s in r.sentences}
        assert metrics.counter("extract.sentences") == len(distinct)
        assert metrics.counter("extract.batches") == 1
        flat(engine, REVIEWS[:2])  # all memoised: nothing more is tagged
        assert metrics.counter("extract.sentences") == len(distinct)
        assert metrics.counter("extract.batches") == 1

    def test_memo_holds_exactly_the_last_pass(self):
        extractor = fake_extractor()
        engine = ExtractionEngine(extractor)
        corpus = list(REVIEWS[:3])
        for rebuild in range(10):
            if rebuild == 4:
                corpus.pop(1)  # a review leaves the corpus along the way
            flat(engine, corpus)
            assert set(engine.memo) == {review_key(r) for r in corpus}
        assert len(engine.memo) == 2
        # Duplicate content shares one entry.
        flat(engine, REVIEWS)
        assert set(engine.memo) == {review_key(r) for r in REVIEWS[:3]}


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ExtractionEngine(fake_extractor(), "fp8")

    def test_oracle_extractor_cannot_tag_utterances(self):
        from repro.core.extractor import OracleExtractor

        engine = ExtractionEngine(OracleExtractor())
        with pytest.raises(TypeError):
            engine.extract_token_lists([["hello"]])


class TestSaccsAnswer:
    """``Saccs.answer`` extracts through the engine, like the served path."""

    @pytest.fixture(scope="class")
    def world(self):
        from repro.data import WorldConfig, build_world

        return build_world(WorldConfig.small(seed=42, num_entities=12, mean_reviews=3.0))

    def saccs(self, world, precision):
        from repro.core import Saccs, SaccsConfig
        from repro.text import ConceptualSimilarity, restaurant_lexicon

        system = Saccs(
            world.entities,
            world.reviews,
            fake_extractor(),
            ConceptualSimilarity(restaurant_lexicon()),
            SaccsConfig(encoder_precision=precision),
        )
        system.build_index([SubjectiveTag.from_text(d.name) for d in world.dimensions])
        return system

    UTTERANCE = "i want a place with delicious food"

    def test_answer_runs_at_the_configured_precision(self, world):
        system = self.saccs(world, "float32")
        metrics = MetricsRegistry()
        system.extraction_engine.bind_metrics(metrics)
        tagger = system.extractor.tagger
        before = len(tagger.precisions)
        system.answer(self.UTTERANCE)
        assert tagger.precisions[before:] == ["float32"]
        assert metrics.counter("extract.sentences") == 1

    def test_float64_answer_is_unchanged(self, world):
        system = self.saccs(world, "float64")
        parsed, api_ids = system.understand(self.UTTERANCE)
        tags = system.extractor.extract(parsed.tokens)
        assert tags
        assert system.answer(self.UTTERANCE) == system.answer_tags(tags, api_ids)


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
