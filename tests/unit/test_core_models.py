"""Unit tests for the tagger, adversarial training, heuristics and extractor."""

import numpy as np
import pytest

from repro.bert import PretrainPlan, pretrained_encoder
from repro.core import (
    AdversarialConfig,
    AttentionPairingHeuristic,
    HeuristicPairer,
    OracleExtractor,
    SequenceTagger,
    SubjectiveTag,
    TagExtractor,
    TaggerTrainer,
    TaggerTrainingConfig,
    TreePairingHeuristic,
    WordDistanceHeuristic,
    evaluate_tagger,
    span_f1,
)
from repro.core.evaluation import classification_report
from repro.data import LabeledSentence, build_tagging_dataset
from repro.data.schema import Review
from repro.text import ChunkParser, PosLexicon, restaurant_lexicon
from repro.text.labels import LABEL_TO_ID


@pytest.fixture(scope="module")
def encoder():
    return pretrained_encoder("restaurants", plan=PretrainPlan.quick(seed=11))


@pytest.fixture(scope="module")
def tiny_dataset():
    return build_tagging_dataset("S4", scale=0.12, seed=3)


@pytest.fixture(scope="module")
def trained_tagger(encoder, tiny_dataset):
    tagger = SequenceTagger(encoder, np.random.default_rng(0))
    TaggerTrainer(tagger, TaggerTrainingConfig(epochs=6, batch_size=16)).fit(tiny_dataset.train)
    return tagger


class TestSequenceTagger:
    def test_emissions_shape(self, encoder):
        tagger = SequenceTagger(encoder, np.random.default_rng(0))
        emissions, mask, _ = tagger.emissions([["the", "food", "is", "good"]])
        assert emissions.shape == (1, 4, 5)
        assert mask.shape == (1, 4)

    def test_predict_lengths_match(self, encoder):
        tagger = SequenceTagger(encoder, np.random.default_rng(0))
        sentences = [["the", "food"], ["a", "b", "c", "d", "e"]]
        labels = tagger.predict(sentences)
        assert [len(l) for l in labels] == [2, 5]

    def test_predictions_respect_iob_grammar(self, trained_tagger, tiny_dataset):
        from repro.text.labels import is_valid_transition

        for labels in trained_tagger.predict([s.tokens for s in tiny_dataset.test[:20]]):
            for prev, nxt in zip(labels, labels[1:]):
                assert is_valid_transition(prev, nxt), (prev, nxt)

    def test_training_learns_signal(self, trained_tagger, tiny_dataset):
        result = evaluate_tagger(trained_tagger, tiny_dataset.test)
        assert result.f1 > 0.5

    def test_encode_labels(self):
        ids = SequenceTagger.encode_labels([["O", "B-AS"], ["B-OP"]])
        assert ids.shape == (2, 2)
        assert ids[0, 1] == LABEL_TO_ID["B-AS"]
        assert ids[1, 1] == LABEL_TO_ID["O"]  # padding

    def test_extract_spans(self, trained_tagger):
        aspects, opinions = trained_tagger.extract_spans(
            "the food is delicious .".split()
        )
        assert isinstance(aspects, list)
        assert isinstance(opinions, list)

    def test_predict_restores_training_mode(self, encoder):
        tagger = SequenceTagger(encoder, np.random.default_rng(0))
        tagger.train()
        tagger.predict([["the", "food"]])
        assert tagger.training
        tagger.eval()
        tagger.predict([["the", "food"]])
        assert not tagger.training

    def test_predict_restores_training_mode_on_decode_error(self, encoder, monkeypatch):
        tagger = SequenceTagger(encoder, np.random.default_rng(0))
        tagger.train()

        def boom(*args, **kwargs):
            raise RuntimeError("decode blew up")

        monkeypatch.setattr(tagger.crf, "decode", boom)
        with pytest.raises(RuntimeError, match="decode blew up"):
            tagger.predict([["the", "food"]])
        # A mid-decode failure must not leave the model stuck in eval mode
        # (dropout silently disabled for the rest of a training run).
        assert tagger.training


class TestAdversarialTraining:
    def test_adversarial_step_runs_and_descends(self, encoder, tiny_dataset):
        tagger = SequenceTagger(encoder, np.random.default_rng(1))
        config = TaggerTrainingConfig(
            epochs=3,
            batch_size=16,
            adversarial=AdversarialConfig(enabled=True, epsilon=0.2, alpha=0.5),
        )
        history = TaggerTrainer(tagger, config).fit(tiny_dataset.train[:48])
        assert history[-1] < history[0]

    def test_alpha_bounds_validated(self):
        with pytest.raises(ValueError):
            AdversarialConfig(enabled=True, alpha=1.5)
        with pytest.raises(ValueError):
            AdversarialConfig(enabled=True, epsilon=-0.1)

    def test_alpha_zero_pure_adversarial(self, encoder, tiny_dataset):
        tagger = SequenceTagger(encoder, np.random.default_rng(2))
        config = TaggerTrainingConfig(
            epochs=1,
            batch_size=16,
            adversarial=AdversarialConfig(enabled=True, epsilon=0.1, alpha=0.0),
        )
        history = TaggerTrainer(tagger, config).fit(tiny_dataset.train[:32])
        assert np.isfinite(history[0])

    def test_empty_training_set_rejected(self, encoder):
        tagger = SequenceTagger(encoder, np.random.default_rng(0))
        with pytest.raises(ValueError):
            TaggerTrainer(tagger).fit([])


PARSER = ChunkParser(PosLexicon(restaurant_lexicon()))


class TestHeuristics:
    def tokens_and_spans(self):
        # "the staff is friendly, helpful and professional. the decor is beautiful."
        tokens = "the staff is friendly , helpful and professional . the decor is beautiful .".split()
        aspects = [(1, 2), (10, 11)]
        opinions = [(3, 4), (5, 6), (7, 8), (12, 13)]
        return tokens, aspects, opinions

    def test_word_distance_mispairs_papers_example(self):
        tokens, aspects, opinions = self.tokens_and_spans()
        heuristic = WordDistanceHeuristic(direction="opinions")
        pairs = heuristic.pairs(tokens, aspects, opinions)
        # word distance wrongly sends "professional" (7,8) to "decor" (10,11)
        assert ((10, 11), (7, 8)) in pairs

    def test_tree_heuristic_fixes_papers_example(self):
        tokens, aspects, opinions = self.tokens_and_spans()
        heuristic = TreePairingHeuristic(PARSER, direction="opinions")
        pairs = heuristic.pairs(tokens, aspects, opinions)
        assert ((1, 2), (7, 8)) in pairs  # professional -> staff
        assert ((10, 11), (12, 13)) in pairs  # beautiful -> decor

    def test_directions_cover_multi_opinion_aspect(self):
        tokens, aspects, opinions = self.tokens_and_spans()
        from_opinions = TreePairingHeuristic(PARSER, direction="opinions").pairs(
            tokens, aspects, opinions
        )
        # opinions->aspects links every opinion, so staff collects all three
        staff_links = {pair for pair in from_opinions if pair[0] == (1, 2)}
        assert len(staff_links) == 3

    @pytest.mark.parametrize(
        "direction, sentence, aspects, opinions, expected",
        [
            (
                "opinions",
                "the staff is friendly , helpful and professional .",
                [(1, 2)],
                [(3, 4), (5, 6), (7, 8)],
                {((1, 2), (3, 4)), ((1, 2), (5, 6)), ((1, 2), (7, 8))},
            ),
            (
                "aspects",
                "the staff and the decor are lovely .",
                [(1, 2), (4, 5)],
                [(6, 7)],
                {((1, 2), (6, 7)), ((4, 5), (6, 7))},
            ),
        ],
    )
    def test_one_target_pairs_without_parsing(self, direction, sentence, aspects, opinions, expected):
        class RaisingParser:
            def parse(self, tokens):
                raise AssertionError("a forced pairing must not parse")

        heuristic = TreePairingHeuristic(RaisingParser(), direction=direction)
        assert heuristic.pairs(sentence.split(), aspects, opinions) == expected

    def test_empty_spans_yield_no_pairs(self):
        assert TreePairingHeuristic(PARSER).pairs(["hello"], [], []) == set()
        assert WordDistanceHeuristic().pairs(["hello"], [], []) == set()

    def test_attention_heuristic_shapes(self, encoder):
        tokens = "the food is delicious .".split()
        heuristic = AttentionPairingHeuristic(encoder, 0, 0)
        pairs = heuristic.pairs(tokens, [(1, 2)], [(3, 4)])
        assert pairs == {((1, 2), (3, 4))}  # single option must be linked

    def test_attention_margin_abstains(self, encoder):
        tokens = "the food is delicious and the staff is friendly .".split()
        strict = AttentionPairingHeuristic(encoder, 0, 0, margin=1e9)
        assert strict.pairs(tokens, [(1, 2), (6, 7)], [(3, 4), (8, 9)]) == set()

    def test_invalid_direction(self):
        with pytest.raises(ValueError):
            WordDistanceHeuristic(direction="sideways")
        with pytest.raises(ValueError):
            TreePairingHeuristic(PARSER, direction="sideways")

    def test_invalid_margin(self, encoder):
        with pytest.raises(ValueError):
            AttentionPairingHeuristic(encoder, 0, 0, margin=0.5)


class TestExtractor:
    def test_oracle_extractor_reads_gold(self):
        sentence = LabeledSentence(
            tokens="the food is delicious .".split(),
            labels=["O", "B-AS", "O", "B-OP", "O"],
            pairs=[((1, 2), (3, 4))],
        )
        review = Review("r1", "e1", [sentence])
        tags = OracleExtractor().extract_review(review)
        assert tags == [SubjectiveTag("food", "delicious")]

    def test_oracle_deduplicates(self):
        sentence = LabeledSentence(
            tokens="the food is delicious .".split(),
            labels=["O", "B-AS", "O", "B-OP", "O"],
            pairs=[((1, 2), (3, 4))],
        )
        review = Review("r1", "e1", [sentence, sentence])
        assert len(OracleExtractor().extract_review(review)) == 1

    def test_neural_extractor_end_to_end(self, trained_tagger):
        pairer = HeuristicPairer([TreePairingHeuristic(PARSER, direction="opinions")])
        extractor = TagExtractor(trained_tagger, pairer)
        tags = extractor.extract("the room was clean and the staff was friendly .".split())
        assert all(isinstance(t, SubjectiveTag) for t in tags)

    def test_extract_batch_alignment(self, trained_tagger):
        pairer = HeuristicPairer([TreePairingHeuristic(PARSER, direction="opinions")])
        extractor = TagExtractor(trained_tagger, pairer)
        batch = extractor.extract_batch([
            "the bed was comfy .".split(),
            "we visited on a friday .".split(),
        ])
        assert len(batch) == 2

    def test_empty_batch(self, trained_tagger):
        pairer = HeuristicPairer([TreePairingHeuristic(PARSER, direction="opinions")])
        assert TagExtractor(trained_tagger, pairer).extract_batch([]) == []


class TestEvaluationMetrics:
    def test_span_f1_perfect(self):
        labels = [["B-AS", "O", "B-OP"]]
        result = span_f1(labels, labels)
        assert result.f1 == 1.0

    def test_span_f1_partial_overlap_not_counted(self):
        gold = [["B-AS", "I-AS", "O"]]
        pred = [["B-AS", "O", "O"]]  # wrong span boundary
        result = span_f1(gold, pred)
        assert result.true_positives == 0

    def test_span_f1_empty_predictions(self):
        result = span_f1([["B-AS"]], [["O"]])
        assert result.precision == 0.0
        assert result.recall == 0.0
        assert result.f1 == 0.0

    def test_span_f1_misaligned_raises(self):
        with pytest.raises(ValueError):
            span_f1([["O"]], [["O"], ["O"]])
        with pytest.raises(ValueError):
            span_f1([["O", "O"]], [["O"]])

    def test_classification_report_values(self):
        report = classification_report([1, 1, 0, 0], [1, 0, 1, 0])
        assert report.accuracy == 0.5
        assert report.precision == 0.5
        assert report.recall == 0.5

    def test_classification_report_empty_raises(self):
        with pytest.raises(ValueError):
            classification_report([], [])
