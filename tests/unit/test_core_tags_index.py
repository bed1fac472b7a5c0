"""Unit tests for SubjectiveTag, the index (Eq. 1) and filtering (Alg. 1)."""

import numpy as np
import pytest

from repro.core import (
    FilterConfig,
    SubjectiveTag,
    SubjectiveTagIndex,
    aggregate_scores,
    filter_and_rank,
)
from repro.text import ConceptualSimilarity, restaurant_lexicon


@pytest.fixture(scope="module")
def similarity():
    return ConceptualSimilarity(restaurant_lexicon())


class TestSubjectiveTag:
    def test_normalisation(self):
        tag = SubjectiveTag(aspect="  Food ", opinion=" Really  GOOD ")
        assert tag.aspect == "food"
        assert tag.opinion == "really good"
        assert tag.text == "really good food"

    def test_from_text(self):
        tag = SubjectiveTag.from_text("delicious food")
        assert tag.aspect == "food"
        assert tag.opinion == "delicious"

    def test_from_text_multiword_opinion(self):
        tag = SubjectiveTag.from_text("really quick service")
        assert tag.aspect == "service"
        assert tag.opinion == "really quick"

    def test_from_text_rejects_single_word(self):
        with pytest.raises(ValueError):
            SubjectiveTag.from_text("food")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SubjectiveTag(aspect="", opinion="good")

    def test_hashable_and_equal(self):
        assert SubjectiveTag("food", "good") == SubjectiveTag("Food", "GOOD")
        assert len({SubjectiveTag("food", "good"), SubjectiveTag("food", "good")}) == 1


def _register(index, entity_id, review_tag_texts):
    """Helper: review_tag_texts is a list (per review) of tag-text lists."""
    per_review = [
        [SubjectiveTag.from_text(text) for text in texts] for texts in review_tag_texts
    ]
    index.register_entity(entity_id, per_review)


class TestIndex:
    def test_exact_mentions_build_entries(self, similarity):
        index = SubjectiveTagIndex(similarity)
        _register(index, "good_place", [["delicious food"], ["tasty food"], ["good food"]])
        _register(index, "bad_place", [["bland food"], ["tasteless food"]])
        index.add_tag(SubjectiveTag.from_text("delicious food"))
        mapping = index.lookup(SubjectiveTag.from_text("delicious food"))
        assert "good_place" in mapping
        assert "bad_place" not in mapping  # opposite polarity never matches

    def test_more_supporting_reviews_higher_degree(self, similarity):
        index = SubjectiveTagIndex(similarity)
        _register(index, "many", [["delicious food"]] * 8 + [["nice staff"]] * 2)
        _register(index, "few", [["delicious food"]] + [["nice staff"]] * 9)
        index.add_tag(SubjectiveTag.from_text("delicious food"))
        mapping = index.lookup(SubjectiveTag.from_text("delicious food"))
        assert mapping["many"] > mapping["few"]

    def test_literal_mode_is_frequency_blind(self, similarity):
        index = SubjectiveTagIndex(similarity, review_count_mode="all")
        _register(index, "many", [["delicious food"]] * 8 + [["nice staff"]] * 2)
        _register(index, "few", [["delicious food"]] + [["nice staff"]] * 9)
        index.add_tag(SubjectiveTag.from_text("delicious food"))
        mapping = index.lookup(SubjectiveTag.from_text("delicious food"))
        # literal Eq. 1: same review count, same mean similarity -> equal.
        assert mapping["many"] == pytest.approx(mapping["few"])

    def test_taxonomy_match_through_pizza(self, similarity):
        index = SubjectiveTagIndex(similarity)
        _register(index, "pizzeria", [["amazing pizza"], ["amazing pizza"]])
        index.add_tag(SubjectiveTag.from_text("good food"))
        assert "pizzeria" in index.lookup(SubjectiveTag.from_text("good food"))

    def test_unknown_tag_lookup_empty(self, similarity):
        index = SubjectiveTagIndex(similarity)
        _register(index, "e", [["delicious food"]])
        assert index.lookup(SubjectiveTag.from_text("nice staff")) == {}

    def test_lookup_similar_combines_and_scales(self, similarity):
        index = SubjectiveTagIndex(similarity)
        _register(index, "e1", [["good food"]] * 5)
        _register(index, "e2", [["creative cooking"]] * 5)
        index.build([SubjectiveTag.from_text("good food"), SubjectiveTag.from_text("creative cooking")])
        result = index.lookup_similar(SubjectiveTag.from_text("delicious food"), theta_filter=0.5)
        assert "e1" in result
        # degree is scaled by the similarity, so below the exact-tag degree
        assert result["e1"] < index.lookup(SubjectiveTag.from_text("good food"))["e1"] + 1e-9

    def test_add_tag_idempotent(self, similarity):
        index = SubjectiveTagIndex(similarity)
        _register(index, "e", [["good food"]])
        tag = SubjectiveTag.from_text("good food")
        index.add_tag(tag)
        first = index.lookup(tag)
        index.add_tag(tag)
        assert index.lookup(tag) == first
        assert len(index) == 1

    def test_normalized_degrees_bounded(self, similarity):
        index = SubjectiveTagIndex(similarity)
        _register(index, "e", [["delicious food"]] * 30)
        index.add_tag(SubjectiveTag.from_text("delicious food"))
        degree = index.lookup(SubjectiveTag.from_text("delicious food"))["e"]
        assert 0.0 < degree <= 1.01

    def test_invalid_configs(self, similarity):
        with pytest.raises(ValueError):
            SubjectiveTagIndex(similarity, theta_index=1.5)
        with pytest.raises(ValueError):
            SubjectiveTagIndex(similarity, review_count_mode="sometimes")
        with pytest.raises(ValueError):
            SubjectiveTagIndex(similarity, backend="gpu")

    def test_snippet_renders(self, similarity):
        index = SubjectiveTagIndex(similarity)
        _register(index, "e", [["good food"]])
        index.add_tag(SubjectiveTag.from_text("good food"))
        assert "good food" in index.snippet()

    def test_snippet_deterministic_on_ties(self, similarity):
        # Identical review sets → exactly equal degrees; the rendering must
        # tie-break on entity id regardless of registration order.
        for order in (("b_place", "a_place"), ("a_place", "b_place")):
            index = SubjectiveTagIndex(similarity)
            for entity_id in order:
                _register(index, entity_id, [["delicious food"]] * 3)
            index.add_tag(SubjectiveTag.from_text("delicious food"))
            snippet = index.snippet()
            assert snippet.find("a_place") < snippet.find("b_place")


class TestVectorizedBackend:
    """The matrix-backed index must agree with the scalar reference oracle."""

    REVIEWS = {
        "good_place": [["delicious food"], ["tasty food", "nice staff"], ["good food"]],
        "bad_place": [["bland food"], ["tasteless food"]],
        "pizzeria": [["amazing pizza"], ["amazing pizza"], ["great pizza"]],
        "cafe": [["friendly staff"], ["cozy atmosphere"], ["nice staff", "good coffee"]],
    }
    INDEX_TAGS = ("delicious food", "good food", "nice staff", "amazing pizza")

    def _build(self, similarity, backend, **kwargs):
        index = SubjectiveTagIndex(similarity, backend=backend, **kwargs)
        for entity_id, reviews in self.REVIEWS.items():
            _register(index, entity_id, reviews)
        index.build([SubjectiveTag.from_text(t) for t in self.INDEX_TAGS])
        return index

    @pytest.mark.parametrize("theta_mode", ["static", "dynamic"])
    @pytest.mark.parametrize("review_count_mode", ["matched", "all"])
    def test_lookup_matches_scalar(self, similarity, theta_mode, review_count_mode):
        kwargs = {"theta_mode": theta_mode, "review_count_mode": review_count_mode}
        vectorized = self._build(similarity, "vectorized", **kwargs)
        scalar = self._build(similarity, "scalar", **kwargs)
        for text in self.INDEX_TAGS:
            tag = SubjectiveTag.from_text(text)
            expected = scalar.lookup(tag)
            actual = vectorized.lookup(tag)
            assert set(actual) == set(expected)
            for entity_id, degree in expected.items():
                assert actual[entity_id] == pytest.approx(degree, abs=1e-9)

    def test_lookup_similar_matches_scalar(self, similarity):
        vectorized = self._build(similarity, "vectorized")
        scalar = self._build(similarity, "scalar")
        queries = [
            SubjectiveTag.from_text("really tasty food"),
            SubjectiveTag.from_text("super friendly staff"),
            SubjectiveTag.from_text("awesome pizza"),
        ]
        for query in queries:
            expected = scalar.lookup_similar(query, theta_filter=0.5)
            actual = vectorized.lookup_similar(query, theta_filter=0.5)
            assert set(actual) == set(expected)
            for entity_id, value in expected.items():
                assert actual[entity_id] == pytest.approx(value, abs=1e-9)

    def test_batch_matches_singles(self, similarity):
        index = self._build(similarity, "vectorized")
        queries = [
            SubjectiveTag.from_text("really tasty food"),
            SubjectiveTag.from_text("awesome pizza"),
            SubjectiveTag.from_text("delicious food"),  # interned: cached column path
        ]
        batched = index.lookup_similar_batch(queries, theta_filter=0.5)
        for query, combined in zip(queries, batched):
            single = index.lookup_similar(query, theta_filter=0.5)
            assert set(combined) == set(single)
            for entity_id, value in single.items():
                assert combined[entity_id] == pytest.approx(value, abs=1e-9)

    def test_vocabulary_interns_review_and_index_tags(self, similarity):
        index = self._build(similarity, "vectorized")
        assert SubjectiveTag.from_text("delicious food") in index.vocab
        assert SubjectiveTag.from_text("cozy atmosphere") in index.vocab

    def test_dynamic_threshold_cached_and_invalidated(self, similarity):
        index = SubjectiveTagIndex(similarity, theta_mode="dynamic")
        _register(index, "e", [["delicious food"], ["tasty food"]])
        tag = SubjectiveTag.from_text("good food")
        theta = index._threshold_for(tag)
        assert index._threshold_cache[tag] == theta
        assert index._threshold_for(tag) == theta
        # New evidence can shift the similarity distribution: cache clears.
        _register(index, "f", [["good food"]])
        assert not index._threshold_cache

    def test_entities_registered_after_tag_not_backfilled(self, similarity):
        # Mappings are fixed at add_tag time in both backends.
        for backend in ("vectorized", "scalar"):
            index = SubjectiveTagIndex(similarity, backend=backend)
            _register(index, "early", [["delicious food"]] * 2)
            tag = SubjectiveTag.from_text("delicious food")
            index.add_tag(tag)
            _register(index, "late", [["delicious food"]] * 2)
            assert "late" not in index.lookup(tag)
            # …but a *new* tag sees the late entity.
            other = SubjectiveTag.from_text("tasty food")
            index.add_tag(other)
            assert "late" in index.lookup(other)


def _corpus(num_entities=30, num_index_tags=80, seed=7):
    """Synthetic entities/reviews, an index tag list longer than the 64-row
    row-stationary ceiling, and 30 queries (20 index tags, 10 unknown)."""
    rng = np.random.default_rng(seed)
    lexicon = restaurant_lexicon()
    aspects = sorted(lexicon.aspect_surface_index())
    opinions = sorted(op.text for op in lexicon.opinions)
    pool = [SubjectiveTag(a, o) for a in aspects for o in opinions]
    index_tags = [pool[i] for i in rng.choice(len(pool), size=num_index_tags, replace=False)]
    corpus = []
    for e in range(num_entities):
        reviews = []
        for _ in range(int(rng.integers(1, 5))):
            picks = rng.choice(len(pool), size=int(rng.integers(1, 6)))
            reviews.append([pool[i] for i in picks])
        corpus.append((f"entity-{e:03d}", reviews))
    queries = list(index_tags[:20])
    queries += [SubjectiveTag(t.aspect, f"really {t.opinion}") for t in index_tags[20:30]]
    return corpus, index_tags, queries


def _build_from(similarity, corpus, tags, **kwargs):
    index = SubjectiveTagIndex(similarity, **kwargs)
    for entity_id, reviews in corpus:
        index.register_entity(entity_id, reviews)
    index.build(tags)
    return index


class TestBitwiseBatching:
    """Exact float equality, not approx: batching requests into one
    ``lookup_similar_batch`` call must never change a score, past the
    64-row ceiling where layout-dependent low bits would creep in."""

    @pytest.fixture(scope="class")
    def workload(self):
        return _corpus()

    @pytest.mark.parametrize("theta_mode", ["static", "dynamic"])
    def test_batch_equals_one_call_per_query(self, similarity, workload, theta_mode):
        corpus, tags, queries = workload
        assert len(tags) > 64
        batched = _build_from(similarity, corpus, tags, theta_mode=theta_mode)
        singles = _build_from(similarity, corpus, tags, theta_mode=theta_mode)
        expected = [singles.lookup_similar(query, theta_filter=0.6) for query in queries]
        assert batched.lookup_similar_batch(queries, theta_filter=0.6) == expected
        assert any(expected)

    def test_tag_added_after_a_warm_query_matches_a_fresh_build(self, similarity, workload):
        corpus, tags, queries = workload
        grown = _build_from(similarity, corpus, tags[:-1])
        grown.lookup_similar_batch(queries, theta_filter=0.6)  # warm the query-row cache
        grown.add_tag(tags[-1])
        fresh = _build_from(similarity, corpus, tags)
        assert grown.lookup_similar_batch(
            queries, theta_filter=0.6
        ) == fresh.lookup_similar_batch(queries, theta_filter=0.6)
        for tag in tags:
            assert grown.lookup(tag) == fresh.lookup(tag)

    def test_empty_index_returns_empty_results(self, similarity):
        index = SubjectiveTagIndex(similarity)
        tag = SubjectiveTag("food", "delicious")
        assert index.lookup_similar_batch([tag], theta_filter=0.6) == [{}]
        assert index.lookup(tag) == {}


class TestAggregation:
    def test_mean(self):
        assert aggregate_scores([0.2, 0.4], "mean") == pytest.approx(0.3)

    def test_product(self):
        assert aggregate_scores([0.5, 0.5], "product") == pytest.approx(0.25)

    def test_min(self):
        assert aggregate_scores([0.9, 0.1], "min") == pytest.approx(0.1)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            aggregate_scores([], "mean")


class TestFilterAndRank:
    API = ["a", "b", "c", "d"]

    def test_no_tags_preserves_api_order(self):
        result = filter_and_rank(self.API, [])
        assert [e for e, _ in result] == self.API

    def test_soft_mode_ranks_by_mean_with_zero_fill(self):
        tag_sets = [{"a": 0.9, "b": 0.8}, {"a": 0.9, "c": 0.9}]
        result = filter_and_rank(self.API, tag_sets, FilterConfig(mode="soft"))
        ids = [e for e, _ in result]
        assert ids[0] == "a"  # present in both
        assert "d" not in ids  # matched nothing

    def test_strict_mode_requires_all_sets(self):
        tag_sets = [{"a": 0.9, "b": 0.8}, {"a": 0.9, "c": 0.9}]
        result = filter_and_rank(
            self.API, tag_sets, FilterConfig(mode="strict", backfill=False)
        )
        assert [e for e, _ in result] == ["a"]

    def test_strict_backfill_appends_partials(self):
        tag_sets = [{"a": 0.9, "b": 0.8}, {"a": 0.9, "c": 0.9}]
        result = filter_and_rank(self.API, tag_sets, FilterConfig(mode="strict", backfill=True))
        ids = [e for e, _ in result]
        assert ids[0] == "a"
        assert set(ids[1:]) == {"b", "c"}

    def test_entities_outside_api_excluded(self):
        tag_sets = [{"z": 1.0, "a": 0.5}]
        result = filter_and_rank(["a"], tag_sets)
        assert [e for e, _ in result] == ["a"]

    def test_top_k(self):
        tag_sets = [{"a": 0.9, "b": 0.8, "c": 0.7}]
        result = filter_and_rank(self.API, tag_sets, FilterConfig(top_k=2))
        assert len(result) == 2

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            FilterConfig(mode="fuzzy")

    def test_deterministic_tie_break(self):
        tag_sets = [{"a": 0.5, "b": 0.5}]
        result = filter_and_rank(["b", "a"], tag_sets)
        assert [e for e, _ in result] == ["a", "b"]  # lexicographic on ties
