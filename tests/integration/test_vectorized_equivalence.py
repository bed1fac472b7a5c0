"""Vectorized-vs-scalar equivalence on a seeded synthetic world.

The matrix-backed index must return *identical* results — same entity sets,
degrees within 1e-9 — to the scalar reference oracle
(:class:`~repro.core.index.ScalarTagIndex`) for every query shape:
exact ``lookup``, Algorithm-1 ``lookup_similar``, and the full
``filter_and_rank`` conversational path.
"""

import pytest

from repro.core import OracleExtractor, Saccs, SaccsConfig, SubjectiveTag, SubjectiveTagIndex
from repro.core.index import ScalarTagIndex
from repro.data import WorldConfig, build_world
from repro.text import ConceptualSimilarity, restaurant_lexicon


@pytest.fixture(scope="module")
def world():
    return build_world(WorldConfig.small(seed=7, num_entities=25, mean_reviews=8.0))


class _ScalarSaccs(Saccs):
    """The facade over the scalar reference index (the oracle)."""

    def _make_index(self):
        return ScalarTagIndex(
            self.similarity,
            theta_index=self.config.theta_index,
            review_count_mode=self.config.review_count_mode,
            theta_mode=self.config.theta_mode,
        )


def _build_saccs(world, backend, **config_kwargs):
    similarity = ConceptualSimilarity(restaurant_lexicon())
    facade = {"vectorized": Saccs, "scalar": _ScalarSaccs}[backend]
    saccs = facade(
        world.entities,
        world.reviews,
        OracleExtractor(),
        similarity,
        SaccsConfig(**config_kwargs),
    )
    saccs.build_index([SubjectiveTag.from_text(d.name) for d in world.dimensions])
    expected = {"vectorized": SubjectiveTagIndex, "scalar": ScalarTagIndex}[backend]
    assert type(saccs.index) is expected
    return saccs


def _assert_mappings_equal(actual, expected):
    assert set(actual) == set(expected)
    for entity_id, value in expected.items():
        assert actual[entity_id] == pytest.approx(value, abs=1e-9)


@pytest.mark.parametrize("theta_mode", ["static", "dynamic"])
def test_index_entries_identical(world, theta_mode):
    vectorized = _build_saccs(world, "vectorized", theta_mode=theta_mode)
    scalar = _build_saccs(world, "scalar", theta_mode=theta_mode)
    assert vectorized.index.tags == scalar.index.tags
    for tag in scalar.index.tags:
        _assert_mappings_equal(vectorized.index.lookup(tag), scalar.index.lookup(tag))


def test_lookup_similar_identical(world):
    vectorized = _build_saccs(world, "vectorized")
    scalar = _build_saccs(world, "scalar")
    queries = [
        SubjectiveTag.from_text(f"really {dimension.name}")
        for dimension in world.dimensions
    ]
    for query in queries:
        _assert_mappings_equal(
            vectorized.index.lookup_similar(query, theta_filter=0.6),
            scalar.index.lookup_similar(query, theta_filter=0.6),
        )


def test_filter_and_rank_identical(world):
    vectorized = _build_saccs(world, "vectorized")
    scalar = _build_saccs(world, "scalar")
    dimension_names = [d.name for d in world.dimensions]
    # single-tag, multi-tag known, and multi-tag with unknown variants
    queries = [
        [dimension_names[0]],
        dimension_names[:3],
        [f"really {dimension_names[0]}", dimension_names[1]],
    ]
    for query in queries:
        tags = [SubjectiveTag.from_text(text) for text in query]
        ranked_vectorized = vectorized.answer_tags(tags)
        ranked_scalar = scalar.answer_tags(tags)
        assert [e for e, _ in ranked_vectorized] == [e for e, _ in ranked_scalar]
        for (_, score_v), (_, score_s) in zip(ranked_vectorized, ranked_scalar):
            assert score_v == pytest.approx(score_s, abs=1e-9)


def test_indexing_round_keeps_backends_aligned(world):
    vectorized = _build_saccs(world, "vectorized")
    scalar = _build_saccs(world, "scalar")
    unknown = SubjectiveTag.from_text(f"really {world.dimensions[0].name}")
    for saccs in (vectorized, scalar):
        saccs.answer_tags([unknown])
        round_ = saccs.run_indexing_round()
        assert unknown in round_.added or unknown in saccs.index
    _assert_mappings_equal(vectorized.index.lookup(unknown), scalar.index.lookup(unknown))
