"""Unit tests for lexicons, taxonomy, similarity, POS, parser and labels."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.text import (
    ChunkParser,
    ConceptTaxonomy,
    ConceptualSimilarity,
    DomainLexicon,
    PosLexicon,
    TagVocabulary,
    electronics_lexicon,
    hotel_lexicon,
    lexicon_for_domain,
    restaurant_lexicon,
    word_tokenize,
    detokenize,
)
from repro.text.labels import (
    LABELS,
    forbidden_transitions,
    is_valid_transition,
    labels_to_spans,
    spans_to_labels,
)
from repro.text.lexicon import OpinionWord


class TestTokenize:
    def test_splits_punctuation(self):
        assert word_tokenize("Great food, honestly!") == ["great", "food", ",", "honestly", "!"]

    def test_preserves_case_when_asked(self):
        assert word_tokenize("The Food", lowercase=False)[1] == "Food"

    def test_detokenize_attaches_punctuation(self):
        assert detokenize(["good", "food", ",", "really", "."]) == "good food, really."

    def test_roundtrip_stable(self):
        text = "the staff is friendly , helpful and professional ."
        assert word_tokenize(detokenize(word_tokenize(text))) == word_tokenize(text)


class TestLexicon:
    @pytest.mark.parametrize("builder", [restaurant_lexicon, electronics_lexicon, hotel_lexicon])
    def test_builds_nonempty(self, builder):
        lex = builder()
        assert len(lex.aspects) > 5
        assert len(lex.opinions) > 20

    def test_surface_index_covers_all_forms(self):
        lex = restaurant_lexicon()
        index = lex.aspect_surface_index()
        assert index["pizza"] == "pizza"
        assert index["atmosphere"] == "ambiance"
        assert index["la carte"] == "menu"

    def test_opinions_for_topic_sign_filter(self):
        lex = restaurant_lexicon()
        positives = lex.opinions_for_topic("service", positive=True)
        negatives = lex.opinions_for_topic("service", positive=False)
        assert all(o.polarity > 0 for o in positives)
        assert all(o.polarity < 0 for o in negatives)
        assert positives and negatives

    def test_polarity_validation(self):
        with pytest.raises(ValueError):
            OpinionWord("broken", 2.0, ("food",))

    def test_unknown_domain_raises(self):
        with pytest.raises(KeyError):
            lexicon_for_domain("aviation")

    def test_every_opinion_topic_is_a_known_aspect(self):
        for domain in ("restaurants", "electronics", "hotels"):
            lex = lexicon_for_domain(domain)
            for opinion in lex.opinions:
                for topic in opinion.topics:
                    assert topic in lex.aspects, (domain, opinion.text, topic)


class TestTaxonomy:
    def test_depths(self):
        tax = ConceptTaxonomy(restaurant_lexicon())
        assert tax.depth("entity") == 0
        assert tax.depth("food") == 1
        assert tax.depth("pizza") == 2

    def test_lca(self):
        tax = ConceptTaxonomy(restaurant_lexicon())
        assert tax.lowest_common_ancestor("pizza", "pasta") == "food"
        assert tax.lowest_common_ancestor("pizza", "staff") == "entity"

    def test_wu_palmer_ordering(self):
        tax = ConceptTaxonomy(restaurant_lexicon())
        assert tax.wu_palmer("pizza", "pasta") > tax.wu_palmer("pizza", "staff")
        assert tax.wu_palmer("food", "food") == 1.0

    def test_surface_similarity_handles_unknowns(self):
        tax = ConceptTaxonomy(restaurant_lexicon())
        assert tax.surface_similarity("zzz", "food") == 0.0
        assert tax.surface_similarity("zzz", "zzz") == 1.0

    def test_identical_surfaces_max(self):
        tax = ConceptTaxonomy(restaurant_lexicon())
        assert tax.surface_similarity("pizza", "pizzas") == 1.0

    @pytest.mark.parametrize("domain", ["restaurants", "electronics", "hotels"])
    def test_concept_order_and_depths_follow_the_parent_chains(self, domain):
        lexicon = lexicon_for_domain(domain)
        tax = ConceptTaxonomy(lexicon)
        # Each aspect in lexicon order, then its parent if not seen yet:
        # the row order of the similarity kernel's pair table.
        order = []
        for concept in lexicon.aspects.values():
            for name in (concept.name, concept.parent):
                if name is not None and name not in order:
                    order.append(name)
        assert tax.concepts == order
        parent = {name: concept.parent for name, concept in lexicon.aspects.items()}
        for name in order:
            steps, current = 0, name
            while parent.get(current) is not None:
                current, steps = parent[current], steps + 1
            assert current == tax.root
            assert tax.depth(name) == steps
            assert tax.ancestors_with_self(name)[-1] == tax.root
            assert len(tax.ancestors_with_self(name)) == steps + 1

    def test_cyclic_or_rootless_taxonomies_are_rejected(self):
        cyclic = DomainLexicon("cyclic")
        cyclic.add_aspect("entity", ["place"])
        cyclic.add_aspect("food", ["food"], parent="dish")
        cyclic.add_aspect("dish", ["dish"], parent="food")
        with pytest.raises(ValueError, match="cycle"):
            ConceptTaxonomy(cyclic)
        two_roots = DomainLexicon("two-roots")
        two_roots.add_aspect("entity", ["place"])
        two_roots.add_aspect("food", ["food"])
        with pytest.raises(ValueError, match="exactly one root"):
            ConceptTaxonomy(two_roots)

    def test_importing_the_server_loads_neither_networkx_nor_scipy(self):
        import repro

        paths = [str(Path(repro.__file__).resolve().parents[1])]
        if os.environ.get("PYTHONPATH"):
            paths.append(os.environ["PYTHONPATH"])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        code = (
            "import sys, repro.serve\n"
            "print(sorted(m for m in ('networkx', 'scipy') if m in sys.modules))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestConceptualSimilarity:
    @pytest.fixture(scope="class")
    def sim(self):
        return ConceptualSimilarity(restaurant_lexicon())

    def test_paraphrase_tags_close(self, sim):
        assert sim.tag_similarity(("food", "delicious"), ("food", "good")) > 0.8

    def test_cross_aspect_tags_far(self, sim):
        assert sim.tag_similarity(("food", "delicious"), ("staff", "nice")) < 0.2

    def test_taxonomy_aware(self, sim):
        # pizza is a kind of food — the paper's own example.
        assert sim.tag_similarity(("pizza", "amazing"), ("food", "good")) > 0.6

    def test_opposite_polarity_reduces(self, sim):
        same = sim.tag_similarity(("food", "delicious"), ("food", "tasty"))
        opposite = sim.tag_similarity(("food", "delicious"), ("food", "bland"))
        assert same > opposite

    def test_modifier_stripping(self, sim):
        assert sim.opinion_similarity("really good", "good") == 1.0

    def test_range(self, sim):
        pairs = [("food", "delicious"), ("staff", "rude"), ("view", "stunning")]
        for a in pairs:
            for b in pairs:
                score = sim.tag_similarity(a, b)
                assert 0.0 <= score <= 1.0

    def test_symmetry(self, sim):
        a, b = ("food", "delicious"), ("cooking", "creative")
        assert sim.tag_similarity(a, b) == pytest.approx(sim.tag_similarity(b, a))

    def test_bad_floor_raises(self):
        with pytest.raises(ValueError):
            ConceptualSimilarity(restaurant_lexicon(), opinion_floor=1.5)

    def test_opposite_polarity_below_floor_plus_margin(self, sim):
        # "delicious food" vs "bland food" must stay below indexing thresholds.
        assert sim.tag_similarity(("food", "delicious"), ("food", "bland")) <= 0.4


class TestTagSimilarityMatrix:
    @pytest.fixture(scope="class")
    def sim(self):
        return ConceptualSimilarity(restaurant_lexicon())

    TAGS_A = [
        ("food", "delicious"),
        ("pizza", "amazing"),
        ("staff", "nice"),
        ("unknownaspect", "meh"),
        ("food", "really good"),
    ]
    TAGS_B = [
        ("food", "good"),
        ("staff", "really friendly"),
        ("unknownaspect", "meh"),
        ("food", "bland"),
        ("view", "stunning"),
    ]

    def test_matches_scalar_exactly(self, sim):
        matrix = sim.tag_similarity_matrix(self.TAGS_A, self.TAGS_B)
        assert matrix.shape == (len(self.TAGS_A), len(self.TAGS_B))
        for i, a in enumerate(self.TAGS_A):
            for j, b in enumerate(self.TAGS_B):
                assert matrix[i, j] == pytest.approx(sim.tag_similarity(a, b), abs=1e-9)

    def test_empty_inputs(self, sim):
        assert sim.tag_similarity_matrix([], self.TAGS_B).shape == (0, len(self.TAGS_B))
        assert sim.tag_similarity_matrix(self.TAGS_A, []).shape == (len(self.TAGS_A), 0)

    def test_oov_equal_opinions_score_one_channel(self, sim):
        # Equal normalised phrases count as opinion similarity 1.0 even when
        # both are out of vocabulary — same as the scalar oracle.
        matrix = sim.tag_similarity_matrix([("food", "zesty")], [("food", "zesty")])
        assert matrix[0, 0] == pytest.approx(1.0)

    def test_accepts_subjective_tags(self, sim):
        from repro.core import SubjectiveTag

        tags = [SubjectiveTag.from_text("delicious food")]
        matrix = sim.tag_similarity_matrix(tags, tags)
        assert matrix[0, 0] == pytest.approx(1.0)


class TestTagVocabulary:
    @pytest.fixture()
    def vocab(self):
        return TagVocabulary(ConceptualSimilarity(restaurant_lexicon()))

    def test_intern_is_idempotent(self, vocab):
        first = vocab.intern(("food", "good"))
        second = vocab.intern(("food", "good"))
        assert first == second
        assert len(vocab) == 1

    def test_roundtrip_and_membership(self, vocab):
        tag = ("staff", "friendly")
        tag_id = vocab.intern(tag)
        assert tag in vocab
        assert vocab.id_of(tag) == tag_id
        assert vocab.tag_of(tag_id) == tag
        assert vocab.id_of(("staff", "rude")) is None

    def test_features_grow_incrementally(self, vocab):
        vocab.intern(("food", "good"))
        assert len(vocab.features()) == 1
        vocab.intern_many([("food", "tasty"), ("staff", "nice")])
        features = vocab.features()
        assert len(features) == 3
        assert features.units.shape[0] == 3

    def test_similarity_rows_match_scalar(self, vocab):
        vocab.intern_many([("food", "good"), ("pizza", "amazing"), ("staff", "rude")])
        query = ("food", "delicious")
        rows = vocab.similarity_rows([query])
        assert rows.shape == (1, 3)
        for j, tag in enumerate(vocab.tags):
            expected = vocab.similarity.tag_similarity(query, tag)
            assert rows[0, j] == pytest.approx(expected, abs=1e-9)


class TestPos:
    def test_tags_core_classes(self):
        pos = PosLexicon(restaurant_lexicon())
        tags = pos.tag_sequence(word_tokenize("The food is really delicious ."))
        assert tags == ["DET", "NOUN", "VERB", "ADV", "ADJ", "PUNCT"]

    def test_unknown_defaults_to_noun(self):
        pos = PosLexicon(restaurant_lexicon())
        assert pos.tag("zzzunknown") == "NOUN"

    def test_domain_jargon_adjectives(self):
        pos = PosLexicon(electronics_lexicon())
        assert pos.tag("laggy") == "ADJ"
        assert pos.tag("crisp") == "ADJ"


class TestParser:
    @pytest.fixture(scope="class")
    def parser(self):
        return ChunkParser(PosLexicon(restaurant_lexicon()))

    def test_paper_motivating_example(self, parser):
        # "professional" must be tree-closer to "staff" than to "decor".
        tokens = word_tokenize(
            "The staff is friendly, helpful and professional. The decor is beautiful."
        )
        tree = parser.parse(tokens)
        d_staff = tree.leaf_distance(tokens.index("professional"), tokens.index("staff"))
        d_decor = tree.leaf_distance(tokens.index("professional"), tokens.index("decor"))
        assert d_staff < d_decor

    def test_clause_split_on_but(self, parser):
        tokens = word_tokenize("The food is delicious but the service is slow.")
        tree = parser.parse(tokens)
        d_same = tree.leaf_distance(tokens.index("delicious"), tokens.index("food"))
        d_cross = tree.leaf_distance(tokens.index("delicious"), tokens.index("service"))
        assert d_same < d_cross

    def test_clause_split_on_and_between_verbful_clauses(self, parser):
        tokens = word_tokenize("The food is great and the staff is nice.")
        tree = parser.parse(tokens)
        d_food = tree.leaf_distance(tokens.index("great"), tokens.index("food"))
        d_staff = tree.leaf_distance(tokens.index("great"), tokens.index("staff"))
        assert d_food < d_staff

    def test_coordinated_adjectives_stay_together(self, parser):
        tokens = word_tokenize("The staff is friendly, helpful and professional.")
        tree = parser.parse(tokens)
        # one sentence, one clause: all adjectives near the subject
        d = tree.leaf_distance(tokens.index("helpful"), tokens.index("staff"))
        assert d <= 4

    def test_all_tokens_are_leaves_in_order(self, parser):
        tokens = word_tokenize("I loved the pasta, it was out of this world!")
        tree = parser.parse(tokens)
        leaves = tree.leaves()
        assert [leaf.token for leaf in leaves] == tokens
        assert [leaf.token_index for leaf in leaves] == list(range(len(tokens)))

    def test_empty_input(self, parser):
        tree = parser.parse([])
        assert tree.leaves() == []

    def test_missing_punctuation_degrades_gracefully(self, parser):
        tokens = word_tokenize("the staff is friendly the decor is beautiful")
        tree = parser.parse(tokens)  # no crash; single sentence
        assert len(tree.leaves()) == len(tokens)


class TestLabels:
    def test_spans_to_labels(self):
        labels = spans_to_labels(6, [(1, 2)], [(3, 5)])
        assert labels == ["O", "B-AS", "O", "B-OP", "I-OP", "O"]

    def test_roundtrip(self):
        aspects, opinions = [(0, 2), (4, 5)], [(2, 4)]
        labels = spans_to_labels(6, aspects, opinions)
        got_aspects, got_opinions = labels_to_spans(labels)
        assert got_aspects == aspects
        assert got_opinions == opinions

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            spans_to_labels(4, [(0, 2)], [(1, 3)])

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            spans_to_labels(3, [(2, 5)], [])

    def test_malformed_i_without_b_tolerated(self):
        aspects, opinions = labels_to_spans(["I-AS", "I-AS", "O", "I-OP"])
        assert aspects == [(0, 2)]
        assert opinions == [(3, 4)]

    def test_adjacent_b_spans(self):
        aspects, _ = labels_to_spans(["B-AS", "B-AS", "O"])
        assert aspects == [(0, 1), (1, 2)]

    def test_forbidden_transitions_block_illegal_iob(self):
        forbidden = forbidden_transitions()
        from repro.text.labels import LABEL_TO_ID

        assert (LABEL_TO_ID["O"], LABEL_TO_ID["I-AS"]) in forbidden
        assert (LABEL_TO_ID["B-AS"], LABEL_TO_ID["I-OP"]) in forbidden
        assert (LABEL_TO_ID["B-AS"], LABEL_TO_ID["I-AS"]) not in forbidden

    def test_is_valid_transition_symmetric_cases(self):
        assert is_valid_transition("B-OP", "I-OP")
        assert not is_valid_transition("I-AS", "I-OP")
        assert is_valid_transition("O", "B-AS")
