"""Integration tests: batched extraction ≡ sequential on the neural stack.

The acceptance bar for the extraction engine: on a seeded world with a real
(BERT→BiLSTM→CRF) extractor, bucketed, memoised extraction must
produce exactly the same ``SubjectiveTag`` lists per review — and hence a
bit-identical index — as the sequential per-review oracle.
"""

import threading

import numpy as np
import pytest

from repro.bert import PretrainPlan, pretrained_encoder
from repro.core import extraction_engine
from repro.core import (
    ExtractionEngine,
    HeuristicPairer,
    Saccs,
    SaccsConfig,
    SequenceTagger,
    SubjectiveTag,
    SubjectiveTagIndex,
    TagExtractor,
    TaggerTrainer,
    TaggerTrainingConfig,
    TreePairingHeuristic,
)
from repro.data import WorldConfig, build_tagging_dataset, build_world
from repro.data.schema import Review
from repro.serve import MetricsRegistry, SaccsRuntime, ServeConfig
from repro.text import ChunkParser, ConceptualSimilarity, PosLexicon, restaurant_lexicon


@pytest.fixture(scope="module")
def encoder():
    return pretrained_encoder("restaurants", plan=PretrainPlan.quick(seed=21))


@pytest.fixture(scope="module")
def extractor(encoder):
    dataset = build_tagging_dataset("S1", scale=0.06, seed=4)
    tagger = SequenceTagger(encoder, np.random.default_rng(0))
    TaggerTrainer(tagger, TaggerTrainingConfig(epochs=4)).fit(dataset.train)
    parser = ChunkParser(PosLexicon(restaurant_lexicon()))
    return TagExtractor(
        tagger, HeuristicPairer([TreePairingHeuristic(parser, direction="opinions")])
    )


@pytest.fixture(scope="module")
def world():
    return build_world(WorldConfig.small(seed=9, num_entities=12, mean_reviews=4))


@pytest.fixture(scope="module")
def flat_reviews(world):
    return [review for reviews in world.reviews.values() for review in reviews]


def extract_flat(engine, reviews):
    """One corpus pass over ``reviews`` as a single entity's review list."""
    return engine.extract_corpus([("all", reviews)])[0][1]


class TestEngineEquivalence:
    def test_bucketed_matches_sequential(self, extractor, flat_reviews, monkeypatch):
        # Tiny buckets force sentences from different reviews to share forwards.
        monkeypatch.setattr(extraction_engine, "BUCKET_SENTENCES", 5)
        engine = ExtractionEngine(extractor)
        expected = [extractor.extract_review(review) for review in flat_reviews]
        assert extract_flat(engine, flat_reviews) == expected
        # Multiset equality per review follows from list equality, but state
        # it explicitly — it is the acceptance criterion.
        for got, want in zip(extract_flat(engine, flat_reviews), expected):
            assert sorted(t.text for t in got) == sorted(t.text for t in want)

    def test_saccs_bucketed_index_is_bit_identical(self, world, extractor, monkeypatch):
        similarity = ConceptualSimilarity(restaurant_lexicon())
        tags = [SubjectiveTag.from_text(d.name) for d in world.dimensions]
        # The oracle: one extractor call per review, registered in order.
        sequential = SubjectiveTagIndex(similarity)
        for entity in world.entities:
            sequential.register_entity(
                entity.entity_id,
                [
                    extractor.extract_review(review)
                    for review in world.reviews.get(entity.entity_id, [])
                ],
            )
        sequential.build(tags)
        monkeypatch.setattr(extraction_engine, "BUCKET_SENTENCES", 16)
        bucketed = Saccs(world.entities, world.reviews, extractor, similarity, SaccsConfig())
        bucketed.build_index(tags)
        assert bucketed.index._entity_tags == sequential._entity_tags
        for tag in tags:
            assert bucketed.index.lookup(tag) == sequential.lookup(tag)

    def test_repeated_sentences_are_tagged_once(self, extractor, flat_reviews, monkeypatch):
        base = flat_reviews[:6]
        echoed = base[0].sentences[0]
        reviews = list(base) + [
            # Whole reviews repeated under new ids ...
            Review(review_id=f"{r.review_id}-copy", entity_id=r.entity_id,
                   sentences=list(r.sentences))
            for r in base[:3]
        ] + [
            # ... and one sentence repeated inside and across reviews.
            Review(review_id="echo", entity_id=base[1].entity_id,
                   sentences=[echoed, *base[1].sentences, echoed]),
        ]
        metrics = MetricsRegistry()
        monkeypatch.setattr(extraction_engine, "BUCKET_SENTENCES", 4)
        engine = ExtractionEngine(extractor, metrics=metrics)
        assert extract_flat(engine, reviews) == [
            extractor.extract_review(review) for review in reviews
        ]
        distinct = {tuple(s.tokens) for review in reviews for s in review.sentences}
        total = sum(len(review.sentences) for review in reviews)
        assert metrics.counter("extract.sentences") == len(distinct) < total

    def test_utterance_batch_matches_single_extract(self, extractor, monkeypatch):
        monkeypatch.setattr(extraction_engine, "BUCKET_SENTENCES", 3)
        engine = ExtractionEngine(extractor)
        utterances = [
            "the food is delicious".split(),
            "i want a place with friendly staff and good pasta".split(),
            "cheap beer".split(),
        ]
        assert engine.extract_token_lists(utterances) == [
            extractor.extract(u) for u in utterances
        ]


class TestIncrementalReingest:
    def test_rebuild_after_edit_only_retags_the_edit(self, world, extractor):
        similarity = ConceptualSimilarity(restaurant_lexicon())
        tags = [SubjectiveTag.from_text(d.name) for d in world.dimensions]
        saccs = Saccs(world.entities, world.reviews, extractor, similarity, SaccsConfig())
        metrics = MetricsRegistry()
        saccs.extraction_engine.bind_metrics(metrics)
        saccs.build_index(tags)
        total = sum(len(reviews) for reviews in world.reviews.values())
        assert len(saccs.extraction_engine.memo) <= total
        batches0 = metrics.counter("extract.batches")
        sentences0 = metrics.counter("extract.sentences")
        assert batches0 > 0
        live = {tag: saccs.index.lookup(tag) for tag in tags}

        # Unchanged corpus: no tagger call, and the rebuilt index ranks like
        # the live one.
        generation = saccs.index_generation
        saccs.commit_rebuild(saccs.prepare_rebuild())
        assert metrics.counter("extract.batches") == batches0
        assert metrics.counter("extract.sentences") == sentences0
        assert saccs.index_generation == generation + 1
        assert {tag: saccs.index.lookup(tag) for tag in tags} == live

        # Edit one review (swap in an edited copy): only its sentences are
        # re-tagged.
        from repro.data.schema import LabeledSentence, Review

        entity_id = world.entities[0].entity_id
        victim = world.reviews[entity_id][0]
        edited = Review(
            review_id=victim.review_id,
            entity_id=victim.entity_id,
            sentences=victim.sentences
            + [LabeledSentence(tokens=["service", "was", "slow"], labels=["O"] * 3)],
        )
        updated = dict(world.reviews)
        updated[entity_id] = [edited] + list(world.reviews[entity_id][1:])
        saccs.commit_rebuild(saccs.prepare_rebuild(updated))
        distinct = {tuple(sentence.tokens) for sentence in edited.sentences}
        assert metrics.counter("extract.sentences") == sentences0 + len(distinct)
        assert saccs.index._entity_tags[entity_id][0] == extractor.extract_review(edited)


class TestRuntimeUtteranceBatching:
    @pytest.fixture()
    def runtime(self, world, extractor):
        saccs = Saccs(
            world.entities,
            world.reviews,
            extractor,
            ConceptualSimilarity(restaurant_lexicon()),
            SaccsConfig(),
        )
        saccs.build_index([SubjectiveTag.from_text(d.name) for d in world.dimensions])
        with SaccsRuntime(saccs, ServeConfig(max_batch_size=8, max_wait_ms=20.0)) as rt:
            yield rt

    def test_concurrent_utterances_share_batches_and_match_facade(self, runtime):
        utterances = [
            "somewhere with delicious food",
            "friendly staff please",
            "somewhere with delicious food",
            "cheap drinks and tasty pizza",
        ]
        expected = {u: runtime.saccs.answer(u) for u in set(utterances)}
        responses = [None] * len(utterances)

        def query(i):
            responses[i] = runtime.search_utterance(utterances[i])

        threads = [threading.Thread(target=query, args=(i,)) for i in range(len(utterances))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for utterance, response in zip(utterances, responses):
            assert list(response.results) == expected[utterance]

    def test_extracted_tags_are_cached_per_generation(self, runtime):
        first = runtime.search_utterance("a place with friendly staff")
        again = runtime.search_utterance("a place with friendly staff")
        assert again.cached  # re-extracted, then answered by the ranking cache
        assert list(again.results) == list(first.results)

    def test_full_reindex_reuses_the_extraction_cache(self, runtime):
        memo = runtime.saccs.extraction_engine.memo
        sentences_before = runtime.metrics.counter("extract.sentences")
        response = runtime.reindex(full=True)
        assert response.full
        # Every review came from the memo: the tagger saw nothing.
        assert runtime.metrics.counter("extract.sentences") == sentences_before
        assert runtime.saccs.extraction_engine.memo == memo

