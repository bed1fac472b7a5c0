"""Unit tests for the dialog shim, SACCS facade and baselines."""

import numpy as np
import pytest

from repro.conversation import QueryClassifier
from repro.core import (
    DialogSystem,
    IRBaseline,
    OracleExtractor,
    Saccs,
    SaccsConfig,
    SimBaseline,
    SubjectiveTag,
)
from repro.data import CrowdSimulator, WorldConfig, build_world
from repro.text import ConceptualSimilarity, restaurant_lexicon


@pytest.fixture(scope="module")
def world():
    return build_world(WorldConfig.small(num_entities=25, mean_reviews=12))


@pytest.fixture(scope="module")
def similarity():
    return ConceptualSimilarity(restaurant_lexicon())


@pytest.fixture(scope="module")
def saccs(world, similarity):
    system = Saccs(world.entities, world.reviews, OracleExtractor(), similarity, SaccsConfig())
    system.build_index([SubjectiveTag.from_text(d.name) for d in world.dimensions])
    return system


class TestDialog:
    def test_intent_detection(self):
        recognizer = QueryClassifier()
        parsed = recognizer.parse("I want an italian restaurant in montreal")
        assert parsed.intent == "searchRestaurant"
        assert parsed.slots == {"cuisine": "italian", "city": "montreal"}

    def test_unknown_intent(self):
        parsed = QueryClassifier().parse("what time is it")
        assert parsed.intent == "unknown"

    def test_search_filters_by_slots(self, world):
        dialog = DialogSystem(world.entities)
        results = dialog.search("find me an italian restaurant in montreal")
        assert results  # catalog is italian/montreal
        assert all(e.cuisine == "italian" for e in results)

    def test_search_orders_by_stars(self, world):
        dialog = DialogSystem(world.entities)
        results = dialog.search("restaurant in montreal")
        stars = [e.stars for e in results]
        assert stars == sorted(stars, reverse=True)

    def test_unknown_intent_returns_nothing(self, world):
        assert DialogSystem(world.entities).search("sing me a song") == []


class TestSaccs:
    def test_answer_tags_returns_ranked(self, saccs):
        results = saccs.answer_tags([SubjectiveTag.from_text("delicious food")])
        assert results
        scores = [s for _, s in results]
        assert scores == sorted(scores, reverse=True)

    def test_known_tag_does_not_touch_history(self, saccs):
        saccs.user_tag_history.clear()
        saccs.answer_tags([SubjectiveTag.from_text("delicious food")])
        assert saccs.user_tag_history == []

    def test_unknown_tag_recorded_and_answered(self, saccs):
        saccs.user_tag_history.clear()
        tag = SubjectiveTag.from_text("tasty pasta")
        results = saccs.answer_tags([tag])
        assert tag in saccs.user_tag_history
        assert results  # similar-tag combination still answers

    def test_indexing_round_adopts_history(self, saccs):
        saccs.user_tag_history.clear()
        tag = SubjectiveTag.from_text("mouthwatering dessert")
        saccs.answer_tags([tag])
        round_ = saccs.run_indexing_round()
        assert tag in round_.added
        assert tag in saccs.index
        assert saccs.user_tag_history == []

    def test_ranking_tracks_latent_quality(self, world, saccs):
        results = saccs.answer_tags([SubjectiveTag.from_text("delicious food")])
        top = [e for e, _ in results[:5]]
        bottom_truth = world.ideal_ranking(["delicious food"])[-5:]
        assert not set(top) & set(bottom_truth)

    def test_api_restriction_respected(self, world, saccs):
        allowed = [e.entity_id for e in world.entities[:5]]
        results = saccs.answer_tags([SubjectiveTag.from_text("delicious food")], api_entity_ids=allowed)
        assert all(e in allowed for e, _ in results)

    def test_answer_requires_neural_extractor(self, saccs):
        with pytest.raises(TypeError):
            saccs.answer("I want a restaurant with delicious food")


class TestSaccsConfig:
    @pytest.mark.parametrize("field", ["index_shards", "index_lookup_workers"])
    def test_index_is_never_sharded_or_threaded(self, field):
        SaccsConfig(**{field: getattr(SaccsConfig(), field)})
        with pytest.raises(ValueError):
            SaccsConfig(**{field: 2})


class TestIndexGeneration:
    @staticmethod
    def fresh(world, similarity):
        system = Saccs(world.entities, world.reviews, OracleExtractor(), similarity, SaccsConfig())
        system.build_index([SubjectiveTag.from_text(d.name) for d in world.dimensions])
        return system

    def test_build_index_bumps_generation(self, world, similarity):
        system = Saccs(world.entities, world.reviews, OracleExtractor(), similarity, SaccsConfig())
        assert system.index_generation == 0
        system.build_index([SubjectiveTag.from_text("delicious food")])
        assert system.index_generation == 1

    def test_round_bumps_even_when_empty(self, world, similarity):
        system = self.fresh(world, similarity)
        before = system.index_generation
        round_ = system.run_indexing_round()
        assert round_.generation == before + 1
        assert round_.added == ()

    def test_folding_is_idempotent(self, world, similarity):
        system = self.fresh(world, similarity)
        tag = SubjectiveTag.from_text("scrumptious dishes")
        system.answer_tags([tag])
        system.answer_tags([tag])  # same unknown tag twice in the history
        size_before = len(system.index)
        first = system.run_indexing_round()
        assert tag in first.added
        assert len(system.index) == size_before + 1
        # a second round (tag now known) adopts nothing and still bumps
        system.answer_tags([tag])
        second = system.run_indexing_round()
        assert second.added == ()
        assert second.generation == first.generation + 1
        assert len(system.index) == size_before + 1

    def test_folding_order_independent(self, world, similarity):
        tags = [SubjectiveTag.from_text(t) for t in
                ("scrumptious dishes", "lovely view", "speedy service")]
        one, two = self.fresh(world, similarity), self.fresh(world, similarity)
        for tag in tags:
            one.answer_tags([tag])
        for tag in reversed(tags):
            two.answer_tags([tag])
        one.run_indexing_round()
        two.run_indexing_round()
        assert [t.text for t in one.index.tags] == [t.text for t in two.index.tags]
        for tag in tags:
            assert one.index.lookup(tag) == two.index.lookup(tag)

    def test_answer_many_matches_sequential(self, world, similarity):
        import json

        system = self.fresh(world, similarity)
        queries = [
            [SubjectiveTag.from_text("delicious food")],
            [SubjectiveTag.from_text("scrumptious dishes"), SubjectiveTag.from_text("nice staff")],
            [SubjectiveTag.from_text("scrumptious dishes")],  # duplicate unknown
            [SubjectiveTag.from_text("delicious food"), SubjectiveTag.from_text("fair prices")],
        ]
        expected = [system.answer_tags(list(q)) for q in queries]
        batched = system.answer_many(queries)
        assert json.dumps(batched) == json.dumps(expected)

    def test_answer_many_records_history_in_request_order(self, world, similarity):
        system = self.fresh(world, similarity)
        unknown_a = SubjectiveTag.from_text("scrumptious dishes")
        unknown_b = SubjectiveTag.from_text("lovely view")
        system.answer_many([[unknown_b], [unknown_a], [unknown_b]])
        assert system.user_tag_history == [unknown_b, unknown_a, unknown_b]


class TestIRBaseline:
    def test_rank_returns_scores(self, world):
        ir = IRBaseline(world.entities, world.reviews, restaurant_lexicon())
        results = ir.rank(["delicious food"], top_k=5)
        assert len(results) == 5
        assert results[0][1] >= results[-1][1]

    def test_expansion_flag(self, world):
        plain = IRBaseline(world.entities, world.reviews, restaurant_lexicon(), expand=False)
        assert plain.expander is None

    def test_invalid_combination(self, world):
        with pytest.raises(ValueError):
            IRBaseline(world.entities, world.reviews, restaurant_lexicon(), combination="median")

    def test_relevant_text_ranks_higher(self, world):
        ir = IRBaseline(world.entities, world.reviews, restaurant_lexicon())
        ranked = [e for e, _ in ir.rank(["delicious food"], top_k=None)]
        ideal = world.ideal_ranking(["delicious food"])
        # the IR top-5 should sit above median in the ideal ordering on average
        positions = [ideal.index(e) for e in ranked[:5]]
        assert np.mean(positions) < len(ideal) / 2


class TestSimBaseline:
    def test_rank_best_maximises(self, world):
        crowd = CrowdSimulator(world)
        table = crowd.build_sat_table()
        sim = SimBaseline(world.entities, max_attributes=1)
        ranking, score = sim.rank_best(["quiet atmosphere"], table.sat, top_k=10)
        assert len(ranking) == 10
        assert 0.0 <= score <= 1.0

    def test_two_attributes_at_least_as_good(self, world):
        crowd = CrowdSimulator(world)
        table = crowd.build_sat_table()
        one = SimBaseline(world.entities, max_attributes=1)
        two = SimBaseline(world.entities, max_attributes=2)
        query = ["quiet atmosphere", "fair prices"]
        _, score_one = one.rank_best(query, table.sat)
        _, score_two = two.rank_best(query, table.sat)
        assert score_two >= score_one - 1e-9  # supersets can only help

    def test_invalid_max_attributes(self, world):
        with pytest.raises(ValueError):
            SimBaseline(world.entities, max_attributes=3)
