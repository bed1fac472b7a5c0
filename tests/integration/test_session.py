"""Integration tests for multi-turn conversational sessions."""

import gc

import numpy as np
import pytest

from repro.bert import PretrainPlan, pretrained_encoder
from repro.core import (
    ConversationSession,
    HeuristicPairer,
    OracleExtractor,
    Saccs,
    SaccsConfig,
    SequenceTagger,
    SubjectiveTag,
    TagExtractor,
    TaggerTrainer,
    TaggerTrainingConfig,
    TreePairingHeuristic,
    Turn,
)
from repro.data import WorldConfig, build_tagging_dataset, build_world
from repro.text import ChunkParser, ConceptualSimilarity, PosLexicon, restaurant_lexicon


@pytest.fixture(scope="module")
def saccs():
    world = build_world(WorldConfig.small(num_entities=25, mean_reviews=10))
    encoder = pretrained_encoder("restaurants", plan=PretrainPlan.quick(seed=31))
    tagger = SequenceTagger(encoder, np.random.default_rng(0))
    TaggerTrainer(tagger, TaggerTrainingConfig(epochs=8)).fit(
        build_tagging_dataset("S1", scale=0.06, seed=6).train
    )
    parser = ChunkParser(PosLexicon(restaurant_lexicon()))
    extractor = TagExtractor(
        tagger, HeuristicPairer([TreePairingHeuristic(parser, direction="opinions")])
    )
    system = Saccs(
        world.entities, world.reviews, extractor,
        ConceptualSimilarity(restaurant_lexicon()), SaccsConfig(),
    )
    system.build_index([SubjectiveTag.from_text(d.name) for d in world.dimensions])
    return system


class TestConversationSession:
    def test_requires_neural_extractor(self, saccs):
        oracle_system = Saccs(
            saccs.entities, saccs.reviews, OracleExtractor(), saccs.similarity, SaccsConfig()
        )
        with pytest.raises(TypeError):
            ConversationSession(oracle_system)

    def test_tags_accumulate_across_turns(self, saccs):
        session = ConversationSession(saccs, top_k=5)
        first = session.say("I want a restaurant in montreal with delicious food")
        second = session.say("it should also have a nice staff")
        assert first.results
        assert second.results
        assert len(session.active_tags) >= len(first.added_tags)
        texts = {t.text for t in session.active_tags}
        assert any("food" in t for t in texts)

    def test_slots_persist(self, saccs):
        session = ConversationSession(saccs, top_k=5)
        session.say("find me an italian restaurant in montreal")
        session.say("with quick service")
        assert session.slots.get("cuisine") == "italian"
        assert session.slots.get("city") == "montreal"

    def test_retraction_removes_aspect(self, saccs):
        session = ConversationSession(saccs, top_k=5)
        session.say("a restaurant with delicious food and fair prices")
        before = {t.aspect for t in session.active_tags}
        if "prices" in before or "price" in before:
            turn = session.say("actually the prices doesn't matter")
            after = {t.aspect for t in session.active_tags}
            assert not {"prices", "price"} & after
            assert turn.removed_tags

    def test_reset_clears_state(self, saccs):
        session = ConversationSession(saccs, top_k=5)
        session.say("a restaurant with delicious food")
        session.say("start over")
        assert session.active_tags == []
        assert session.slots == {}

    def test_state_summary_renders(self, saccs):
        session = ConversationSession(saccs, top_k=3)
        session.say("a restaurant with delicious food in montreal")
        summary = session.state_summary()
        assert "tags:" in summary
        assert "slots:" in summary

    def test_session_keeps_only_its_last_turn(self, saccs):
        """A long-lived session holds one Turn, not a log of every turn."""
        session = ConversationSession(saccs, top_k=3)
        utterances = ["a restaurant with a beautiful view", "and generous portions", "hello there"]
        gc.collect()
        before = sum(isinstance(obj, Turn) for obj in gc.get_objects())
        for i in range(50):
            session.say(utterances[i % len(utterances)])
        gc.collect()
        alive = sum(isinstance(obj, Turn) for obj in gc.get_objects()) - before
        assert alive == 1
        assert session.last_turn.utterance == utterances[49 % len(utterances)]


class TestConversationStageIntegration:
    """The conversation stage in front of the real neural extractor."""

    OPENER = "I want a restaurant in montreal with delicious food"

    def test_pronoun_chain_matches_explicit_rewrite(self, saccs):
        """"it should ..." ranks identically to naming the referent outright."""
        pronoun = ConversationSession(saccs, top_k=5)
        explicit = ConversationSession(saccs, top_k=5)
        pronoun.say(self.OPENER)
        explicit.say(self.OPENER)
        via_pronoun = pronoun.say("it should also have a friendly staff")
        via_name = explicit.say("the restaurant should also have a friendly staff")
        assert via_pronoun.resolved == via_name.utterance
        assert [t.text for t in via_pronoun.added_tags] == [
            t.text for t in via_name.added_tags
        ]
        assert via_pronoun.results == via_name.results

    def test_stage_off_equivalence_on_pronoun_free_subjective_turns(self, saccs):
        """Stage-on must be a no-op when there is nothing to resolve/route."""
        transcript = [
            "a restaurant in montreal with delicious food",
            "also a friendly staff",
            "and a quiet ambiance",
        ]
        staged = ConversationSession(saccs, top_k=5)
        baseline = ConversationSession(saccs, top_k=5, stage=None)
        for utterance in transcript:
            on = staged.say(utterance)
            off = baseline.say(utterance)
            assert [t.text for t in on.added_tags] == [t.text for t in off.added_tags]
            assert on.results == off.results
        assert [t.text for t in staged.active_tags] == [
            t.text for t in baseline.active_tags
        ]

    def test_non_subjective_turns_bypass_the_extractor(self, saccs):
        session = ConversationSession(saccs, top_k=5)
        session.say(self.OPENER)
        calls = []
        original = saccs.extractor.extract
        saccs.extractor.extract = lambda tokens: (calls.append(1) or original(tokens))
        try:
            chitchat = session.say("thanks a lot, goodbye")
            objective = session.say("a table for two in montreal")
        finally:
            saccs.extractor.__dict__.pop("extract", None)
        assert not calls, "chitchat/objective turns must never reach the extractor"
        assert chitchat.route == "chitchat" and chitchat.added_tags == []
        assert objective.route == "objective" and objective.added_tags == []
        assert session.slots.get("city") == "montreal"
        assert objective.results  # still re-ranks from accumulated state

    def test_topic_shift_clears_subjective_state_keeps_slots(self, saccs):
        session = ConversationSession(saccs, top_k=5)
        first = session.say(self.OPENER)
        if not first.added_tags:
            pytest.skip("tagger did not extract the opener on this seed")
        shifted = session.say("find me a place in lyon with a romantic ambiance")
        assert shifted.shift is True
        assert all(tag not in session.active_tags for tag in first.added_tags)
        assert session.slots.get("city") == "lyon"

    def test_turn_records_resolution_and_state_summary_shows_it(self, saccs):
        session = ConversationSession(saccs, top_k=5)
        session.say(self.OPENER)
        turn = session.say("it should be quiet")
        assert turn.utterance == "it should be quiet"
        assert turn.resolved == "the restaurant should be quiet"
        assert turn.route == "subjective"
        summary = session.state_summary()
        assert "turn:" in summary
        assert "raw=it should be quiet" in summary
        assert "resolved=the restaurant should be quiet" in summary
        assert "route=subjective" in summary

    def test_retraction_is_token_bounded_with_live_state(self, saccs):
        session = ConversationSession(saccs, top_k=5)
        session.say(self.OPENER)
        price_tag = SubjectiveTag.from_text("fair price")
        session.active_tags.append(price_tag)
        # "overpriced" contains "price" as a substring but not as a token:
        # the retraction marker must not fire on it.
        kept = session.say("never mind the overpriced options")
        assert kept.removed_tags == []
        assert price_tag in session.active_tags
        dropped = session.say("the price doesn't matter")
        assert price_tag in dropped.removed_tags
        assert price_tag not in session.active_tags


class TestSessionEdgeCases:
    def test_retract_never_added_tag(self, saccs):
        """Retracting an aspect that was never active is a harmless no-op."""
        session = ConversationSession(saccs, top_k=3)
        turn = session.say("the price doesn't matter")
        assert turn.removed_tags == []
        assert session.last_turn is turn  # the turn is still recorded

    def test_retraction_marker_without_matching_aspect(self, saccs):
        session = ConversationSession(saccs, top_k=3)
        session.say("a restaurant with delicious food")
        active_before = list(session.active_tags)
        turn = session.say("forget the parking")  # aspect never mentioned
        assert turn.removed_tags == []
        assert all(tag in session.active_tags for tag in active_before)

    def test_empty_utterance(self, saccs):
        session = ConversationSession(saccs, top_k=3)
        turn = session.say("")
        assert turn.added_tags == []
        assert turn.removed_tags == []
        assert session.last_turn is turn

    def test_whitespace_only_utterance_after_state(self, saccs):
        session = ConversationSession(saccs, top_k=3)
        session.say("a restaurant with delicious food in montreal")
        active_before = list(session.active_tags)
        turn = session.say("   ")
        assert turn.added_tags == []
        assert session.active_tags == active_before
        assert turn.results  # still ranks against the accumulated state

    def test_reset_is_idempotent(self, saccs):
        session = ConversationSession(saccs, top_k=3)
        session.reset()  # reset before any turn: nothing to clear
        session.say("a restaurant with delicious food")
        session.reset()
        session.reset()
        assert session.active_tags == []
        assert session.slots == {}

    def test_state_summary_deterministic_under_tag_order(self, saccs):
        one = ConversationSession(saccs, top_k=3)
        two = ConversationSession(saccs, top_k=3)
        tags = [SubjectiveTag.from_text("delicious food"), SubjectiveTag.from_text("nice staff")]
        one.active_tags.extend(tags)
        two.active_tags.extend(reversed(tags))
        one.slots.update({"city": "montreal", "cuisine": "italian"})
        two.slots.update({"cuisine": "italian", "city": "montreal"})
        assert one.state_summary() == two.state_summary()
        assert "delicious food" in one.state_summary()
