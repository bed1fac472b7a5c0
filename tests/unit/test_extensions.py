"""Unit tests for the Section-7 extensions: fraud, profiles, dynamic θ, world I/O."""

import numpy as np
import pytest

from repro.core import (
    FakeReviewFilter,
    FraudFilterConfig,
    OracleExtractor,
    Saccs,
    SaccsConfig,
    SubjectiveTag,
    SubjectiveTagIndex,
    UserProfile,
    personalized_rank,
)
from repro.data import (
    FraudConfig,
    LabeledSentence,
    Review,
    WorldConfig,
    build_world,
    inject_fraud,
    load_world,
    save_world,
    sentence_from_dict,
    sentence_to_dict,
)
from repro.text import ConceptualSimilarity, restaurant_lexicon


@pytest.fixture(scope="module")
def similarity():
    return ConceptualSimilarity(restaurant_lexicon())


def make_review(review_id, text_tokens, mentions):
    sentence = LabeledSentence(tokens=text_tokens, labels=["O"] * len(text_tokens))
    return Review(review_id, "e0", [sentence], mentions=mentions)


class TestFraudInjection:
    def test_injects_and_reports_ground_truth(self):
        world = build_world(WorldConfig.small(num_entities=20, mean_reviews=6))
        before = world.num_reviews
        campaigns = inject_fraud(world, FraudConfig(promotion_fraction=0.2, attack_fraction=0.1))
        assert world.num_reviews > before
        assert campaigns
        kinds = {c.kind for c in campaigns}
        assert kinds == {"promotion", "attack"}

    def test_promotion_targets_worst_entities(self):
        world = build_world(WorldConfig.small(num_entities=20, mean_reviews=6))
        campaigns = inject_fraud(world, FraudConfig(promotion_fraction=0.1, attack_fraction=0.0))
        overall = {
            e.entity_id: float(np.mean(list(e.quality.values()))) for e in world.entities
        }
        promoted = [overall[c.entity_id] for c in campaigns]
        median = float(np.median(list(overall.values())))
        assert all(q < median for q in promoted)

    def test_fake_reviews_are_extreme_positive_for_promotion(self):
        world = build_world(WorldConfig.small(num_entities=10, mean_reviews=5))
        campaigns = inject_fraud(world, FraudConfig(promotion_fraction=0.2, attack_fraction=0.0))
        campaign = campaigns[0]
        fakes = [
            r for r in world.reviews[campaign.entity_id] if r.review_id in campaign.review_ids
        ]
        for review in fakes:
            assert all(p > 0 for p in review.mentions.values())

    def test_deterministic(self):
        world_a = build_world(WorldConfig.small(num_entities=10, mean_reviews=5))
        world_b = build_world(WorldConfig.small(num_entities=10, mean_reviews=5))
        ids_a = [c.review_ids for c in inject_fraud(world_a)]
        ids_b = [c.review_ids for c in inject_fraud(world_b)]
        assert ids_a == ids_b


class TestFakeReviewFilter:
    def test_duplicates_score_high(self):
        tokens = "the food is out of this world amazing".split()
        reviews = [make_review(f"r{i}", tokens, {"delicious food": 0.95}) for i in range(5)]
        fltr = FakeReviewFilter()
        assert fltr.duplication_score(reviews[0], reviews) > 0.9

    def test_organic_reviews_pass(self):
        reviews = [
            make_review("r1", "the food was good but the staff was slow".split(), {"delicious food": 0.6, "quick service": -0.7}),
            make_review("r2", "lovely view and fair prices overall".split(), {"beautiful view": 0.8, "fair prices": 0.7}),
        ]
        fltr = FakeReviewFilter()
        assert len(fltr.filter_reviews(reviews)) == 2

    def test_extremity_requires_single_sign(self):
        fltr = FakeReviewFilter()
        mixed = make_review("r", ["a"], {"delicious food": 0.9, "quick service": -0.9})
        assert fltr.extremity_score(mixed) == 0.0
        pure = make_review("r", ["a"], {"delicious food": 0.9, "quick service": 0.9})
        assert fltr.extremity_score(pure) > 0.9

    def test_filter_catches_injected_fraud(self):
        world = build_world(WorldConfig.small(num_entities=16, mean_reviews=10))
        campaigns = inject_fraud(world, FraudConfig(promotion_fraction=0.25, attack_fraction=0.0))
        fltr = FakeReviewFilter()
        caught = 0
        total = 0
        for campaign in campaigns:
            flagged = set(fltr.flagged(world.reviews[campaign.entity_id]))
            caught += len(flagged & set(campaign.review_ids))
            total += len(campaign.review_ids)
        assert caught / total > 0.6  # majority of fakes detected

    def test_filter_spares_most_organic(self):
        world = build_world(WorldConfig.small(num_entities=12, mean_reviews=10))
        fltr = FakeReviewFilter()
        kept = sum(len(fltr.filter_reviews(rs)) for rs in world.reviews.values())
        total = world.num_reviews
        assert kept / total > 0.8

    def test_saccs_accepts_review_filter(self, similarity):
        world = build_world(WorldConfig.small(num_entities=10, mean_reviews=8))
        saccs = Saccs(
            world.entities, world.reviews, OracleExtractor(), similarity,
            SaccsConfig(), review_filter=FakeReviewFilter(),
        )
        saccs.build_index([SubjectiveTag.from_text("delicious food")])
        assert len(saccs.index) == 1


class TestUserProfile:
    def test_default_weight_is_one(self):
        profile = UserProfile("u1")
        assert profile.weight_of("delicious food") == 1.0

    def test_record_query_bumps(self):
        profile = UserProfile("u1")
        tag = SubjectiveTag.from_text("romantic ambiance")
        profile.record_query([tag], lambda t: "romantic ambiance")
        assert profile.weight_of("romantic ambiance") > 1.0

    def test_record_choice_reinforces_edge(self):
        profile = UserProfile("u1")
        chosen = {"romantic ambiance": 0.9, "fair prices": 0.2}
        shown = {"romantic ambiance": 0.5, "fair prices": 0.5}
        profile.record_choice(chosen, shown)
        assert profile.weight_of("romantic ambiance") > 1.0
        assert profile.weight_of("fair prices") < 1.0

    def test_weights_clipped(self):
        profile = UserProfile("u1", max_weight=2.0)
        for _ in range(50):
            profile.record_query([SubjectiveTag.from_text("quiet atmosphere")], lambda t: "quiet atmosphere")
        assert profile.weight_of("quiet atmosphere") <= 2.0

    def test_personalized_rank_prefers_weighted_dimension(self):
        profile = UserProfile("u1", weights={"romantic ambiance": 3.0})
        tag_sets = [
            {"a": 0.9, "b": 0.2},  # romantic ambiance: a excels
            {"a": 0.2, "b": 0.9},  # fair prices: b excels
        ]
        dims = ["romantic ambiance", "fair prices"]
        ranked = personalized_rank(tag_sets, dims, profile, ["a", "b"])
        assert ranked[0][0] == "a"
        neutral = personalized_rank(tag_sets, dims, UserProfile("u2"), ["a", "b"])
        assert neutral[0][1] == pytest.approx(neutral[1][1])  # tie without profile

    def test_personalized_rank_alignment_check(self):
        with pytest.raises(ValueError):
            personalized_rank([{}], [], UserProfile("u"), ["a"])

    def test_normalized_weights_mean_one(self):
        profile = UserProfile("u1", weights={"a": 3.0, "b": 0.5})
        weights = profile.normalized_weights(["a", "b", "c"])
        assert np.isclose(np.mean(list(weights.values())), 1.0)


class TestDynamicThreshold:
    def test_generic_tag_gets_raised_threshold(self, similarity):
        index = SubjectiveTagIndex(similarity, theta_mode="dynamic")
        per_review = [
            [SubjectiveTag.from_text("good food")],
            [SubjectiveTag.from_text("tasty food")],
            [SubjectiveTag.from_text("nice staff")],
        ]
        index.register_entity("e", per_review)
        generic = index._threshold_for(SubjectiveTag.from_text("good food"))
        assert generic > index.theta_index  # peak 1.0 -> raised

    def test_specific_tag_keeps_floor(self, similarity):
        index = SubjectiveTagIndex(similarity, theta_mode="dynamic")
        index.register_entity("e", [[SubjectiveTag.from_text("nice staff")]])
        specific = index._threshold_for(SubjectiveTag.from_text("breathtaking view"))
        assert specific == pytest.approx(index.theta_index)

    def test_invalid_mode_rejected(self, similarity):
        with pytest.raises(ValueError):
            SubjectiveTagIndex(similarity, theta_mode="wobbly")

    def test_dynamic_mode_builds(self, similarity):
        world = build_world(WorldConfig.small(num_entities=8, mean_reviews=6))
        saccs = Saccs(
            world.entities, world.reviews, OracleExtractor(), similarity,
            SaccsConfig(theta_mode="dynamic"),
        )
        saccs.build_index([SubjectiveTag.from_text("delicious food")])
        assert len(saccs.index) == 1


class TestWorldIO:
    def test_roundtrip(self, tmp_path):
        world = build_world(WorldConfig.small(num_entities=6, mean_reviews=4))
        path = tmp_path / "world.json"
        save_world(world, path)
        loaded = load_world(path)
        assert [e.entity_id for e in loaded.entities] == [e.entity_id for e in world.entities]
        original = world.reviews[world.entities[0].entity_id][0]
        restored = loaded.reviews[world.entities[0].entity_id][0]
        assert restored.text == original.text
        assert restored.sentences[0].pairs == original.sentences[0].pairs
        assert loaded.entity_index[world.entities[0].entity_id].quality == world.entities[0].quality

    def test_sentence_dict_roundtrip(self):
        sentence = LabeledSentence(
            tokens=["great", "food", "."],
            labels=["B-OP", "B-AS", "O"],
            pairs=[((1, 2), (0, 1))],
            mentions={"delicious food": 0.75},
        )
        assert sentence_from_dict(sentence_to_dict(sentence)) == sentence

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 999}')
        with pytest.raises(ValueError):
            load_world(path)
