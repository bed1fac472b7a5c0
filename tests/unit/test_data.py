"""Unit tests for the synthetic world: dimensions, entities, reviews, datasets."""

import numpy as np
import pytest

from repro.data import (
    ATTRIBUTE_VALUES,
    CatalogConfig,
    CrowdConfig,
    CrowdSimulator,
    LabeledSentence,
    NoiseConfig,
    Review,
    ReviewConfig,
    WorldConfig,
    apply_noise,
    build_pairing_dataset,
    build_tagging_dataset,
    build_world,
    corrupt_token,
    dimension_by_name,
    generate_catalog,
    generate_query_sets,
    restaurant_dimensions,
)
from repro.data.semeval import DATASET_SPECS
from repro.data.templates import SINGLE_PAIR_TEMPLATES, realize
from repro.text.labels import labels_to_spans


class TestDimensions:
    def test_eighteen_dimensions(self):
        assert len(restaurant_dimensions()) == 18

    def test_canonical_tags_match_names(self):
        for dim in restaurant_dimensions():
            aspect, opinion = dim.canonical_tag
            assert dim.name == f"{opinion} {aspect}" or dim.name.endswith(aspect)

    def test_lookup(self):
        dim = dimension_by_name("delicious food")
        assert dim.aspect_concept == "food"
        with pytest.raises(KeyError):
            dimension_by_name("spicy robots")

    def test_pools_disjoint_signs(self):
        for dim in restaurant_dimensions():
            assert not set(dim.positive_opinions) & set(dim.negative_opinions)


class TestCatalog:
    def test_catalog_size_and_determinism(self):
        config = CatalogConfig(num_entities=20, seed=5)
        a = generate_catalog(config)
        b = generate_catalog(CatalogConfig(num_entities=20, seed=5))
        assert len(a) == 20
        assert [e.name for e in a] == [e.name for e in b]
        np.testing.assert_allclose(
            [e.quality["delicious food"] for e in a],
            [e.quality["delicious food"] for e in b],
        )

    def test_quality_in_unit_interval(self):
        for entity in generate_catalog(CatalogConfig(num_entities=30)):
            for value in entity.quality.values():
                assert 0.0 <= value <= 1.0

    def test_attributes_conform_to_schema(self):
        for entity in generate_catalog(CatalogConfig(num_entities=30)):
            for key, value in entity.attributes.items():
                assert value in ATTRIBUTE_VALUES[key], (key, value)

    def test_attributes_correlate_with_latent(self):
        entities = generate_catalog(CatalogConfig(num_entities=250, seed=3))
        quiet_quality = [e.quality["quiet atmosphere"] for e in entities]
        is_quiet = [1.0 if e.attributes["NoiseLevel"] == "quiet" else 0.0 for e in entities]
        assert np.corrcoef(quiet_quality, is_quiet)[0, 1] > 0.3

    def test_stars_half_step(self):
        for entity in generate_catalog(CatalogConfig(num_entities=20)):
            assert (entity.stars * 2) == int(entity.stars * 2)
            assert 1.0 <= entity.stars <= 5.0


class TestNoise:
    def test_corrupt_preserves_short_tokens(self):
        rng = np.random.default_rng(0)
        assert corrupt_token("of", rng) == "of"
        assert corrupt_token(",", rng) == ","

    def test_corrupt_changes_long_tokens_sometimes(self):
        rng = np.random.default_rng(0)
        outcomes = {corrupt_token("delicious", rng) for _ in range(20)}
        assert any(o != "delicious" for o in outcomes)

    def test_apply_noise_keeps_alignment(self):
        sentence = LabeledSentence(
            tokens=["the", "food", "is", "delicious", "."],
            labels=["O", "B-AS", "O", "B-OP", "O"],
            pairs=[((1, 2), (3, 4))],
        )
        rng = np.random.default_rng(1)
        noisy = apply_noise(sentence, NoiseConfig(typo_prob=1.0, drop_final_punct_prob=0.0), rng)
        assert len(noisy.tokens) == len(noisy.labels) == 5
        assert noisy.pairs == sentence.pairs

    def test_drop_final_punct(self):
        sentence = LabeledSentence(
            tokens=["great", "food", "."],
            labels=["B-OP", "B-AS", "O"],
            pairs=[((1, 2), (0, 1))],
        )
        rng = np.random.default_rng(2)
        noisy = apply_noise(sentence, NoiseConfig(typo_prob=0.0, drop_final_punct_prob=1.0), rng)
        assert noisy.tokens == ["great", "food"]
        assert len(noisy.labels) == 2


class TestTemplates:
    def test_realize_produces_spans(self):
        template = SINGLE_PAIR_TEMPLATES[0]  # the A1 is O1 .
        sentence = realize(template, {"A1": ["food"], "O1": ["really", "good"]})
        assert sentence.tokens == ["the", "food", "is", "really", "good", "."]
        aspects, opinions = labels_to_spans(sentence.labels)
        assert aspects == [(1, 2)]
        assert opinions == [(3, 5)]
        assert sentence.pairs == [((1, 2), (3, 5))]

    def test_missing_fill_raises(self):
        with pytest.raises(KeyError):
            realize(SINGLE_PAIR_TEMPLATES[0], {"A1": ["food"]})

    def test_empty_fill_raises(self):
        with pytest.raises(ValueError):
            realize(SINGLE_PAIR_TEMPLATES[0], {"A1": [], "O1": ["good"]})


class TestWorldAndReviews:
    @pytest.fixture(scope="class")
    def world(self):
        return build_world(WorldConfig.small(num_entities=12, mean_reviews=10))

    def test_reviews_deterministic(self, world):
        again = build_world(WorldConfig.small(num_entities=12, mean_reviews=10))
        assert world.reviews[world.entities[0].entity_id][0].text == \
            again.reviews[again.entities[0].entity_id][0].text

    def test_every_review_labelled_consistently(self, world):
        for review in world.all_reviews():
            for sentence in review.sentences:
                assert len(sentence.tokens) == len(sentence.labels)
                aspects, opinions = labels_to_spans(sentence.labels)
                for a_span, o_span in sentence.pairs:
                    assert a_span in aspects
                    assert o_span in opinions

    def test_mentions_polarity_tracks_quality(self, world):
        # Across the world, positive-mention ratio should rise with quality.
        lows, highs = [], []
        for entity in world.entities:
            for review in world.reviews[entity.entity_id]:
                for dim, polarity in review.mentions.items():
                    quality = entity.quality_of(dim)
                    (highs if quality > 0.7 else lows if quality < 0.3 else []).append(polarity > 0)
        assert np.mean(highs) > np.mean(lows) + 0.3

    def test_ideal_ranking_sorted(self, world):
        ranking = world.ideal_ranking(["delicious food"])
        qualities = [world.entity_index[e].quality_of("delicious food") for e in ranking]
        assert qualities == sorted(qualities, reverse=True)


class TestReviewConfig:
    def test_defaults_and_world_configs_are_valid(self):
        ReviewConfig()
        WorldConfig.small(num_entities=60, mean_reviews=12.0)

    @pytest.mark.parametrize(
        "field, changes",
        [
            # used to build a world: normalising all-negative weights flips
            # their sign, so the draw favoured the least remarkable aspects
            ("salience_floor", {"salience_floor": -1.0}),
            ("salience_floor", {"salience_floor": float("nan")}),
            ("min_sentences", {"min_sentences": 5, "max_sentences": 4}),
            ("min_sentences", {"min_sentences": 0}),
            ("filler_prob", {"filler_prob": 1.5}),
            ("contrastive_prob", {"contrastive_prob": -0.1}),
            ("polarity_ceiling", {"polarity_ceiling": float("nan")}),
            ("neutral_prob", {"filler_prob": 0.5, "aspect_only_prob": 0.3, "neutral_prob": 0.3}),
            ("two_axis_prob", {"contrastive_prob": 0.6, "two_axis_prob": 0.6}),
            ("polarity_floor", {"polarity_floor": 0.9, "polarity_ceiling": 0.1}),
            ("mean_reviews_per_entity", {"mean_reviews_per_entity": -1.0}),
            ("min_reviews", {"min_reviews": -1}),
        ],
    )
    def test_invalid_config_names_the_field(self, field, changes):
        with pytest.raises(ValueError, match=field):
            ReviewConfig(**changes)


class TestCrowd:
    @pytest.fixture(scope="class")
    def world(self):
        return build_world(WorldConfig.small(num_entities=10, mean_reviews=12))

    def test_true_relevance_levels(self, world):
        crowd = CrowdSimulator(world)
        review = Review("r", "e", [], mentions={"delicious food": 0.9})
        assert crowd.true_relevance("delicious food", review) == 1.0
        review_weak = Review("r", "e", [], mentions={"delicious food": 0.3})
        assert crowd.true_relevance("delicious food", review_weak) == pytest.approx(2 / 3)
        review_neg = Review("r", "e", [], mentions={"delicious food": -0.8})
        assert crowd.true_relevance("delicious food", review_neg) == 0.0

    def test_related_dimension_partial_credit(self, world):
        crowd = CrowdSimulator(world)
        review = Review("r", "e", [], mentions={"quiet atmosphere": 0.8})
        assert crowd.true_relevance("romantic ambiance", review) == pytest.approx(1 / 3)

    def test_unrelated_dimension_no_credit(self, world):
        crowd = CrowdSimulator(world)
        review = Review("r", "e", [], mentions={"fast delivery": 0.9})
        assert crowd.true_relevance("beautiful view", review) == 0.0

    def test_majority_vote_reduces_noise(self, world):
        noisy = CrowdSimulator(world, CrowdConfig(worker_noise=0.4, workers_per_item=3))
        review = Review("r", "e", [], mentions={"delicious food": 0.9})
        rng = np.random.default_rng(0)
        votes = [noisy.judge_review("delicious food", review, rng) for _ in range(200)]
        assert np.mean(votes) > 0.75  # majority vote pulls toward truth (1.0)

    def test_sat_table_shape_and_range(self, world):
        table = CrowdSimulator(world).build_sat_table()
        assert table.values.shape == (18, 10)
        assert table.values.min() >= 0.0
        assert table.values.max() <= 1.0

    def test_sat_correlates_with_latent(self, world):
        table = CrowdSimulator(world).build_sat_table()
        lat, sat = [], []
        for dim in [d.name for d in world.dimensions]:
            for e in world.entities:
                lat.append(e.quality_of(dim))
                sat.append(table.sat(dim, e.entity_id))
        assert np.corrcoef(lat, sat)[0, 1] > 0.3


class TestTaggingDatasets:
    def test_specs_match_paper_table3(self):
        assert DATASET_SPECS["S1"].train_size == 3041
        assert DATASET_SPECS["S2"].test_size == 800
        assert DATASET_SPECS["S3"].train_size == 1315
        assert DATASET_SPECS["S4"].train_size == 800
        assert DATASET_SPECS["S4"].test_size == 112

    def test_scaling(self):
        ds = build_tagging_dataset("S1", scale=0.05)
        train, test = ds.sizes()
        assert train == round(3041 * 0.05)
        assert test == 40

    def test_domains(self):
        ds = build_tagging_dataset("S2", scale=0.02)
        assert ds.spec.domain == "electronics"
        assert all(s.domain == "electronics" for s in ds.train)

    def test_labels_well_formed(self):
        ds = build_tagging_dataset("S4", scale=0.2)
        for sentence in ds.train + ds.test:
            assert len(sentence.tokens) == len(sentence.labels)
            labels_to_spans(sentence.labels)  # must not raise

    def test_s2_contains_numeric_filler(self):
        ds = build_tagging_dataset("S2", scale=0.2)
        has_number = any(any(t.isdigit() for t in s.tokens) for s in ds.train)
        assert has_number

    def test_s3_seed_differs_from_s1(self):
        s1 = build_tagging_dataset("S1", scale=0.02)
        s3 = build_tagging_dataset("S3", scale=0.02)
        assert s1.train[0].tokens != s3.train[0].tokens


class TestPairingDataset:
    def test_balanced_labels(self):
        ds = build_pairing_dataset("restaurants", num_sentences=120)
        pos, neg = len(ds.positives()), len(ds.negatives())
        assert pos > 0 and neg > 0
        assert 0.7 < pos / neg < 1.6

    def test_positive_phrases_are_gold(self):
        ds = build_pairing_dataset("hotels", num_sentences=50, balance=False)
        for example in ds.positives():
            # a positive example's spans must be a gold pair in some sentence
            found = any(
                (example.aspect_span, example.opinion_span) in s.pairs
                and tuple(s.tokens) == example.tokens
                for s in ds.sentences
            )
            assert found

    def test_phrase_rendering(self):
        ds = build_pairing_dataset("restaurants", num_sentences=20)
        example = ds.examples[0]
        assert example.phrase == f"{example.opinion_text} {example.aspect_text}"

    def test_deterministic(self):
        a = build_pairing_dataset("restaurants", num_sentences=30, seed=9)
        b = build_pairing_dataset("restaurants", num_sentences=30, seed=9)
        assert [e.phrase for e in a.examples] == [e.phrase for e in b.examples]


class TestQueries:
    def test_levels_and_sizes(self):
        sets = generate_query_sets()
        assert set(sets) == {"Short", "Medium", "Long"}
        for queries in sets.values():
            assert len(queries) == 100

    def test_tag_counts_per_level(self):
        sets = generate_query_sets()
        for query in sets["Short"]:
            assert 1 <= len(query.dimensions) <= 2
        for query in sets["Medium"]:
            assert 3 <= len(query.dimensions) <= 4
        for query in sets["Long"]:
            assert 5 <= len(query.dimensions) <= 6

    def test_no_duplicate_tags_in_query(self):
        for queries in generate_query_sets().values():
            for query in queries:
                assert len(set(query.dimensions)) == len(query.dimensions)

    def test_utterance_rendering(self):
        sets = generate_query_sets()
        utterance = sets["Medium"][0].utterance()
        assert utterance.startswith("I am looking for a restaurant with ")
        assert " and " in utterance
