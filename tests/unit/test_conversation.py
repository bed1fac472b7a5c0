"""Unit tests for ``repro.conversation``: the multi-turn understanding stage.

Everything here runs without a neural extractor — the stage is pure
lexicon + list manipulation, with no clock and no RNG, so the same
transcript always yields the same decisions.  Session-level behaviour
(extraction, ranking) is covered in ``tests/integration/test_session.py``.
"""

import pytest

from repro.conversation import (
    KIND_ASPECT,
    KIND_ENTITY,
    KIND_OPINION,
    ROUTE_CHITCHAT,
    ROUTE_OBJECTIVE,
    ROUTE_SUBJECTIVE,
    ConversationStage,
    CoreferenceResolver,
    QueryClassifier,
    QueryRewriter,
    SalienceStack,
    TopicShiftDetector,
)
from repro.core.session import ConversationSession, _tokens_match
from repro.core.tags import SubjectiveTag
from repro.serve.metrics import MetricsRegistry
from repro.text.lexicon import restaurant_lexicon


# ------------------------------------------------------------------ classify


class TestQueryClassifier:
    @pytest.fixture(scope="class")
    def classifier(self):
        return QueryClassifier()

    def test_opinion_mention_routes_subjective(self, classifier):
        parsed = classifier.parse("i want a restaurant with delicious food")
        assert parsed.route == ROUTE_SUBJECTIVE
        assert parsed.intent == "searchRestaurant"

    def test_multiword_opinion_phrase_is_matched(self, classifier):
        assert classifier.route_tokens(
            "the cocktails were watered down".split()
        ) == ROUTE_SUBJECTIVE

    def test_objective_slots_without_opinion_route_objective(self, classifier):
        parsed = classifier.parse("an italian place in montreal")
        assert parsed.route == ROUTE_OBJECTIVE
        assert parsed.slots == {"cuisine": "italian", "city": "montreal"}

    def test_aspect_mention_without_opinion_routes_objective(self, classifier):
        assert classifier.route_tokens(["the", "parking"]) == ROUTE_OBJECTIVE

    def test_smalltalk_routes_chitchat(self, classifier):
        assert classifier.parse("what do you recommend").route == ROUTE_CHITCHAT
        assert classifier.route_tokens([]) == ROUTE_CHITCHAT

    def test_intent_matches_old_recognizer_contract(self, classifier):
        # The intent contract of the dialog shim (tests/unit/test_core_saccs.py
        # guards the dialog-level API; this guards the classifier directly).
        parsed = classifier.parse("what time is it")
        assert parsed.intent == "unknown"
        assert parsed.route == ROUTE_CHITCHAT


# ------------------------------------------------------------------ salience


class TestSalienceStack:
    def test_most_recent_wins_and_repush_refreshes(self):
        stack = SalienceStack()
        stack.push(KIND_ASPECT, "food", "the food", 1)
        stack.push(KIND_ASPECT, "staff", "the staff", 2)
        assert stack.most_recent(KIND_ASPECT).value == "staff"
        stack.push(KIND_ASPECT, "food", "the food", 3)
        assert stack.most_recent(KIND_ASPECT).value == "food"
        assert len(stack) == 2

    def test_resolve_respects_kind_priority_order(self):
        stack = SalienceStack()
        stack.push(KIND_OPINION, "romantic", "romantic", 1)
        stack.push(KIND_ASPECT, "ambiance", "the ambiance", 1)
        entry = stack.resolve((KIND_ENTITY, KIND_ASPECT))
        assert entry.kind == KIND_ASPECT

    def test_bounded_by_limit(self):
        stack = SalienceStack(limit=2)
        for turn, value in enumerate(["a", "b", "c"], start=1):
            stack.push(KIND_ASPECT, value, value, turn)
        assert [entry.value for entry in stack.entries()] == ["c", "b"]

    def test_drop_kinds_spares_other_kinds(self):
        stack = SalienceStack()
        stack.push(KIND_ENTITY, "e1", "the restaurant", 1)
        stack.push(KIND_ASPECT, "food", "the food", 1)
        stack.push(KIND_OPINION, "delicious", "delicious", 1)
        assert stack.drop_kinds((KIND_ASPECT, KIND_OPINION)) == 2
        assert stack.most_recent(KIND_ENTITY).value == "e1"

    def test_zero_limit_rejected(self):
        with pytest.raises(ValueError):
            SalienceStack(limit=0)


# --------------------------------------------------------------------- coref


class TestCoreferenceResolver:
    @pytest.fixture(scope="class")
    def resolver(self):
        return CoreferenceResolver(restaurant_lexicon())

    def test_pronoun_resolves_to_most_salient_entity(self, resolver):
        stack = SalienceStack()
        stack.push(KIND_ENTITY, "e7", "the restaurant", 1)
        tokens, bindings, misses = resolver.resolve("is it romantic".split(), stack)
        assert tokens == ["is", "the", "restaurant", "romantic"]
        assert bindings[0].value == "e7" and bindings[0].pronoun == "it"
        assert misses == 0

    def test_unresolvable_pronoun_is_a_miss_and_kept(self, resolver):
        tokens, bindings, misses = resolver.resolve(
            "is it good".split(), SalienceStack()
        )
        assert tokens == ["is", "it", "good"]
        assert not bindings and misses == 1

    def test_first_person_pronouns_never_resolve(self, resolver):
        stack = SalienceStack()
        stack.push(KIND_ENTITY, "e7", "the restaurant", 1)
        tokens, bindings, _ = resolver.resolve("i want pizza".split(), stack)
        assert tokens == ["i", "want", "pizza"] and not bindings

    def test_aspect_referent_substitutes_surface(self, resolver):
        stack = SalienceStack()
        stack.push(KIND_ASPECT, "ambiance", "the ambiance", 1)
        tokens, bindings, _ = resolver.resolve("is it romantic".split(), stack)
        assert tokens == ["is", "the", "ambiance", "romantic"]
        assert bindings[0].kind == KIND_ASPECT


# ------------------------------------------------------------------- rewrite


class TestQueryRewriter:
    @pytest.fixture(scope="class")
    def rewriter(self):
        return QueryRewriter(QueryClassifier())

    def test_identity_on_self_contained_input(self, rewriter):
        result = rewriter.rewrite(
            "i want a restaurant with delicious food".split(), SalienceStack()
        )
        assert not result.rewritten
        assert result.text == "i want a restaurant with delicious food"

    def test_ellipsis_carries_topic_covering_opinion(self, rewriter):
        stack = SalienceStack()
        stack.push(KIND_OPINION, "friendly", "friendly", 1)
        result = rewriter.rewrite("what about the service".split(), stack)
        assert result.rewritten
        assert result.carried_opinion == "friendly"
        assert result.text == "the service is friendly"

    def test_opinion_carry_walks_taxonomy_ancestors(self, rewriter):
        # "quiet" applies to ambiance; "music" is a child of ambiance, so the
        # opinion still carries via the parent chain.
        stack = SalienceStack()
        stack.push(KIND_OPINION, "quiet", "quiet", 1)
        result = rewriter.rewrite("how about the music".split(), stack)
        assert result.rewritten and result.carried_opinion == "quiet"

    def test_no_applicable_opinion_reduces_to_aspect_query(self, rewriter):
        stack = SalienceStack()
        stack.push(KIND_OPINION, "delicious", "delicious", 1)  # food-only
        result = rewriter.rewrite("what about the parking".split(), stack)
        assert result.rewritten
        assert result.carried_opinion is None
        assert result.text == "parking"

    def test_fragment_with_its_own_opinion_keeps_it(self, rewriter):
        stack = SalienceStack()
        stack.push(KIND_OPINION, "delicious", "delicious", 1)
        result = rewriter.rewrite("what about a romantic ambiance".split(), stack)
        assert result.rewritten
        assert "romantic" in result.tokens and result.carried_opinion is None

    def test_prefix_without_aspect_is_left_alone(self, rewriter):
        result = rewriter.rewrite("what about something else".split(), SalienceStack())
        assert not result.rewritten


# --------------------------------------------------------------- topic shift


class TestTopicShiftDetector:
    @pytest.fixture(scope="class")
    def setup(self):
        classifier = QueryClassifier()
        return classifier, TopicShiftDetector(classifier.lexicon)

    def test_refinement_never_shifts(self, setup):
        classifier, detector = setup
        decision = detector.assess(
            classifier, "it should also have a nice staff".split(), ["food"]
        )
        assert not decision.shift

    def test_full_query_on_disjoint_topic_shifts(self, setup):
        classifier, detector = setup
        decision = detector.assess(
            classifier,
            "find me a restaurant with a romantic ambiance".split(),
            ["food", "portions"],
        )
        assert decision.shift
        assert not decision.overlap

    def test_full_query_on_overlapping_topic_does_not_shift(self, setup):
        classifier, detector = setup
        decision = detector.assess(
            classifier,
            "find me a restaurant with delicious pizza".split(),
            ["food"],
        )
        assert not decision.shift
        assert "food" in decision.overlap  # pizza expands to its parent food

    def test_empty_context_never_shifts(self, setup):
        classifier, detector = setup
        decision = detector.assess(
            classifier, "find me a restaurant with delicious food".split(), []
        )
        assert not decision.shift

    def test_taxonomy_root_is_excluded_from_expansion(self, setup):
        _, detector = setup
        assert "entity" not in detector.expand(["food", "staff", "prices"])


# --------------------------------------------------------------------- stage


class TestConversationStage:
    def test_transcript_determinism(self):
        transcript = [
            "i want a restaurant in montreal with delicious food",
            "it should also have generous portions",
            "what about the service",
            "okay thanks",
        ]

        def play():
            stage = ConversationStage()
            outcomes = []
            for turn, utterance in enumerate(transcript, start=1):
                analysis = stage.analyze(utterance)
                stage.observe_results([(f"e{turn}", 1.0)])
                outcomes.append(
                    (analysis.route, analysis.resolved, analysis.shift,
                     tuple(b.value for b in analysis.bindings))
                )
            return outcomes

        assert play() == play()

    def test_routes_chitchat_and_objective_away_from_extraction(self):
        stage = ConversationStage()
        assert stage.analyze("hello").route == ROUTE_CHITCHAT
        assert stage.analyze("a table in montreal").route == ROUTE_OBJECTIVE
        assert stage.analyze("the food should be delicious").route == ROUTE_SUBJECTIVE

    def test_pronoun_resolves_to_observed_result(self):
        stage = ConversationStage()
        stage.analyze("i want a restaurant with delicious food")
        stage.observe_results([("e42", 2.5), ("e1", 1.0)])
        analysis = stage.analyze("is it romantic")
        assert analysis.bindings[0].value == "e42"
        assert analysis.resolved == "is the restaurant romantic"
        assert analysis.route == ROUTE_SUBJECTIVE

    def test_rewritten_fragment_reroutes(self):
        stage = ConversationStage()
        stage.analyze("find me a place with friendly staff")
        analysis = stage.analyze("what about the service")
        assert analysis.rewritten
        assert analysis.resolved == "the service is friendly"
        assert analysis.route == ROUTE_SUBJECTIVE

    def test_topic_shift_drops_stale_salience_but_keeps_entity(self):
        stage = ConversationStage()
        stage.analyze("i want a restaurant with delicious food")
        stage.observe_results([("e9", 1.0)])
        analysis = stage.analyze("find me a restaurant with a romantic ambiance")
        assert analysis.shift
        # stale aspect/opinion salience is gone, but the entity in focus
        # survives the shift (only the shift turn's own mentions remain).
        assert stage.salience.most_recent(KIND_ENTITY).value == "e9"
        values = {entry.value for entry in stage.salience.entries(KIND_OPINION)}
        assert "delicious" not in values and "romantic" in values
        # "it" now binds to the shift turn's freshest referent, not e9's food.
        follow_up = stage.analyze("is it quiet")
        assert follow_up.bindings and follow_up.bindings[0].value == "ambiance"

    def test_metrics_counters_accumulate(self):
        metrics = MetricsRegistry()
        stage = ConversationStage(metrics=metrics)
        stage.analyze("is it good")  # miss: nothing salient yet
        stage.analyze("i want a restaurant with delicious food")
        stage.observe_results([("e1", 1.0)])
        stage.analyze("is it romantic")  # hit
        stage.analyze("hello")
        snapshot = metrics.snapshot()
        counters = snapshot["counters"]
        assert counters["conv.route.subjective"] == 3
        assert counters["conv.route.chitchat"] == 1
        assert counters["conv.coref.hit"] == 1
        assert counters["conv.coref.miss"] == 1
        assert snapshot["ratios"]["conv.coref"] == pytest.approx(0.5)

    def test_observe_tags_registers_aspect_salience(self):
        stage = ConversationStage()
        stage.analyze("i want something nice")
        stage.observe_tags([SubjectiveTag("food", "delicious")])
        entry = stage.salience.most_recent(KIND_ASPECT)
        assert entry.value == "food"

    def test_reset_clears_everything(self):
        stage = ConversationStage()
        stage.analyze("i want a restaurant with delicious food")
        stage.observe_results([("e1", 1.0)])
        stage.reset()
        assert len(stage.salience) == 0
        assert stage.context_concepts() == []


# ------------------------------------------------------- retraction matching


class TestRetractionTokenMatching:
    def _session_with_tags(self, tags):
        # _retractions only consults active_tags; skip the neural-extractor
        # constructor requirement for this pure string-matching regression.
        session = ConversationSession.__new__(ConversationSession)
        session.active_tags = list(tags)
        return session

    def test_substring_no_longer_retracts(self):
        session = self._session_with_tags([SubjectiveTag("price", "fair")])
        # "overpriced" contains "price" — the old substring matching dropped
        # the tag; token-boundary matching must keep it.
        assert session._retractions("the food is not overpriced, never mind the vibe") == []

    def test_whole_token_retracts(self):
        tag = SubjectiveTag("price", "fair")
        session = self._session_with_tags([tag])
        assert session._retractions("the price doesn't matter") == [tag]

    def test_trivial_plural_tolerated_both_ways(self):
        assert _tokens_match("price", "prices")
        assert _tokens_match("prices", "price")
        assert not _tokens_match("price", "priced")
        singular = SubjectiveTag("price", "fair")
        session = self._session_with_tags([singular])
        assert session._retractions("the prices doesn't matter") == [singular]

    def test_multiword_aspect_matches_as_a_phrase(self):
        tag = SubjectiveTag("wine list", "extensive")
        session = self._session_with_tags([tag])
        assert session._retractions("the wine list doesn't matter") == [tag]
        assert session._retractions("the wine doesn't matter") == []
