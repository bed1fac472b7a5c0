"""Unit tests for the miniature BERT: tokenizer, model, MLM, pipeline."""

import sys
import threading

import numpy as np
import pytest

from repro.bert import (
    BatchEncoding,
    BertWordEncoder,
    MiniBert,
    MiniBertConfig,
    MlmConfig,
    PretrainPlan,
    WordPieceTokenizer,
    pretrain_mlm,
    pretrained_encoder,
)
from repro.bert.corpus import domain_corpus, general_corpus
from repro.utils.caching import ArtifactCache

CORPUS = [
    "the food is delicious".split(),
    "the staff is friendly and helpful".split(),
    "delicious pasta and friendly staff".split(),
    "the service was quick".split(),
    "quick delivery and fresh ingredients".split(),
] * 10


@pytest.fixture(scope="module")
def tokenizer():
    return WordPieceTokenizer.train(CORPUS, vocab_size=200)


class TestTokenizer:
    def test_special_tokens_present(self, tokenizer):
        for token in ("[PAD]", "[UNK]", "[MASK]"):
            assert token in tokenizer.vocab

    def test_known_word_single_piece(self, tokenizer):
        # "the" is frequent enough to merge into one piece
        assert len(tokenizer.encode_word("the")) == 1

    def test_unknown_word_decomposes(self, tokenizer):
        pieces = tokenizer.encode_word("deliciousz")
        assert len(pieces) >= 1
        assert tokenizer.unk_id not in pieces[:1] or len(pieces) > 1

    def test_typo_decomposes_instead_of_unk(self, tokenizer):
        # A typo'd frequent word should decompose into informative subwords
        # (a long known prefix), not collapse entirely to UNK.
        typo = tokenizer.encode_word("deliciuos")
        inverse = {v: k for k, v in tokenizer.vocab.items()}
        first_piece = inverse[typo[0]]
        assert first_piece != "[UNK]"
        assert len(first_piece) >= 3
        assert "delicious".startswith(first_piece)

    def test_max_pieces_truncation(self):
        tok = WordPieceTokenizer.train(CORPUS, vocab_size=60, max_pieces_per_word=2)
        assert len(tok.encode_word("extraordinarily")) <= 2

    def test_roundtrip_serialisation(self, tokenizer):
        clone = WordPieceTokenizer.from_arrays(tokenizer.to_arrays())
        assert clone.vocab == tokenizer.vocab
        assert clone.encode_word("delicious") == tokenizer.encode_word("delicious")

    def test_case_insensitive(self, tokenizer):
        assert tokenizer.encode_word("Delicious") == tokenizer.encode_word("delicious")

    def test_vocab_size_bounded(self, tokenizer):
        assert tokenizer.vocab_size <= 200


class TestBatchEncoding:
    def test_padding_shapes(self, tokenizer):
        encoded = [tokenizer.encode_words(s) for s in [["the", "food"], ["delicious"]]]
        batch = BatchEncoding.from_piece_lists(encoded, tokenizer.pad_id, 4)
        assert batch.piece_ids.shape == (2, 2, 4)
        assert batch.word_mask[0].tolist() == [1.0, 1.0]
        assert batch.word_mask[1].tolist() == [1.0, 0.0]

    def test_max_words_truncates(self, tokenizer):
        encoded = [tokenizer.encode_words(["a"] * 10)]
        batch = BatchEncoding.from_piece_lists(encoded, tokenizer.pad_id, 4, max_words=5)
        assert batch.num_words == 5

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            BatchEncoding.from_piece_lists([], 0, 4)

    def test_flat_scatter_matches_loop_oracle_byte_for_byte(self):
        """The vectorized padding scatter is byte-identical to a plain loop."""

        def oracle(sentences, pad_id, max_pieces, max_words=None):
            longest = max(len(s) for s in sentences)
            width = min(longest, max_words) if max_words else longest
            width = max(width, 1)
            piece_ids = np.full((len(sentences), width, max_pieces), pad_id, dtype=np.int64)
            piece_mask = np.zeros((len(sentences), width, max_pieces), dtype=np.float64)
            word_mask = np.zeros((len(sentences), width), dtype=np.float64)
            for b, sentence in enumerate(sentences):
                for w, pieces in enumerate(sentence[:width]):
                    word_mask[b, w] = 1.0
                    for p, piece in enumerate(pieces[:max_pieces]):
                        piece_ids[b, w, p] = piece
                        piece_mask[b, w, p] = 1.0
            return piece_ids, piece_mask, word_mask

        rng = np.random.default_rng(17)
        for _ in range(30):
            sentences = [
                [
                    [int(v) for v in rng.integers(1, 40, size=int(rng.integers(0, 7)))]
                    for _ in range(int(rng.integers(1, 9)))
                ]
                for _ in range(int(rng.integers(1, 5)))
            ]
            max_pieces = int(rng.integers(1, 5))
            max_words = None if rng.integers(0, 2) else int(rng.integers(1, 6))
            batch = BatchEncoding.from_piece_lists(sentences, 0, max_pieces, max_words=max_words)
            ids, mask, words = oracle(sentences, 0, max_pieces, max_words)
            for got, want in ((batch.piece_ids, ids), (batch.piece_mask, mask), (batch.word_mask, words)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


class TestMiniBert:
    @pytest.fixture(scope="class")
    def model(self):
        config = MiniBertConfig(vocab_size=200, dim=32, num_layers=2, num_heads=4, ffn_dim=64)
        return MiniBert(config, np.random.default_rng(0))

    def test_forward_shapes(self, model, tokenizer):
        encoder = BertWordEncoder(tokenizer, model)
        hidden, mask, batch = encoder.encode([["the", "food", "is", "delicious"]])
        assert hidden.shape == (1, 4, 32)
        assert mask.shape == (1, 4)

    def test_attention_shape(self, model, tokenizer):
        encoder = BertWordEncoder(tokenizer, model)
        maps = encoder.attention(["the", "food", "is", "delicious"])
        assert maps.shape == (2, 4, 4, 4)
        np.testing.assert_allclose(maps.sum(axis=-1), 1.0, atol=1e-6)

    def test_concurrent_attention_calls_get_their_own_maps(self, tokenizer):
        # The maps live on the shared model between the capturing forward
        # and the read; two callers must not see each other's.
        config = MiniBertConfig(vocab_size=200, dim=32, num_layers=2, num_heads=4,
                                ffn_dim=64, dropout=0.0)
        model = MiniBert(config, np.random.default_rng(1))
        model.eval()
        encoder = BertWordEncoder(tokenizer, model)
        sentences = [
            "the food is delicious".split(),
            "the staff is friendly and helpful and the service was quick".split(),
        ]
        expected = [encoder.attention(sentence) for sentence in sentences]
        failures = []

        def worker(sentence, want):
            try:
                for _ in range(40):
                    got = encoder.attention(sentence)
                    if got.shape != want.shape or not np.array_equal(got, want):
                        failures.append((len(sentence), got.shape))
                        return
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        threads = [
            threading.Thread(target=worker, args=pair, daemon=True)
            for pair in zip(sentences, expected)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    def test_config_head_divisibility(self):
        with pytest.raises(ValueError):
            MiniBertConfig(dim=30, num_heads=4)

    def test_positions_wrap_for_sentences_beyond_max_positions(self, tokenizer):
        """Sentences longer than the position table wrap instead of crashing."""
        config = MiniBertConfig(
            vocab_size=200, dim=32, num_layers=1, num_heads=2, ffn_dim=64,
            max_positions=4, dropout=0.0,
        )
        model = MiniBert(config, np.random.default_rng(3))
        model.eval()
        words = "the food is delicious and the service was lovely too".split()
        encoded = [tokenizer.encode_words(words)]
        # Built without max_words on purpose: the encoder facade truncates to
        # max_positions, but direct callers can feed wider batches.
        batch = BatchEncoding.from_piece_lists(encoded, tokenizer.pad_id, 4)
        positions = model._positions(batch)
        assert positions.shape == (1, len(words))
        assert positions[0].tolist() == [i % 4 for i in range(len(words))]
        hidden = model.forward(batch)
        assert hidden.shape == (1, len(words), 32)
        assert np.isfinite(hidden.data).all()

    def test_custom_input_embeddings_change_output(self, model, tokenizer):
        encoder = BertWordEncoder(tokenizer, model)
        model.eval()
        batch = encoder.batch([["the", "food"]])
        base = model.forward(batch).data
        from repro.nn.tensor import Tensor

        rng = np.random.default_rng(0)
        base_embeddings = encoder.word_embeddings(batch).data
        perturbed_input = Tensor(base_embeddings + 0.5 * rng.normal(size=base_embeddings.shape))
        perturbed = model.forward(batch, input_embeddings=perturbed_input).data
        assert np.abs(base - perturbed).max() > 1e-6


class TestMlm:
    def test_loss_decreases(self, tokenizer):
        config = MiniBertConfig(vocab_size=tokenizer.vocab_size, dim=32, num_layers=1, num_heads=2, ffn_dim=64, dropout=0.0)
        model = MiniBert(config, np.random.default_rng(1))
        losses = pretrain_mlm(model, tokenizer, CORPUS, MlmConfig(steps=60, batch_size=16, seed=0))
        assert np.mean(losses[-10:]) < np.mean(losses[:10])

    def test_model_in_eval_after_training(self, tokenizer):
        config = MiniBertConfig(vocab_size=tokenizer.vocab_size, dim=32, num_layers=1, num_heads=2, ffn_dim=64)
        model = MiniBert(config, np.random.default_rng(2))
        pretrain_mlm(model, tokenizer, CORPUS, MlmConfig(steps=3, batch_size=4))
        assert not model.training


class TestCorpora:
    def test_general_corpus_excludes_idioms(self):
        corpus = general_corpus(num_sentences=300, seed=7)
        text = " ".join(" ".join(s) for s in corpus)
        assert "a killer" not in text
        assert "out of this world" not in text

    def test_domain_corpus_contains_jargon_eventually(self):
        corpus = domain_corpus("restaurants", num_sentences=800, seed=7)
        text = " ".join(" ".join(s) for s in corpus)
        assert ("a killer" in text) or ("out of this world" in text) or ("to die for" in text)

    def test_deterministic(self):
        a = general_corpus(num_sentences=50, seed=3)
        b = general_corpus(num_sentences=50, seed=3)
        assert a == b


class TestPipeline:
    def test_quick_plan_builds_and_caches(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        plan = PretrainPlan.quick(seed=42)
        encoder = pretrained_encoder(None, plan=plan, cache=cache)
        assert encoder.model.config.vocab_size == encoder.tokenizer.vocab_size
        # second call loads from cache and produces identical weights
        encoder2 = pretrained_encoder(None, plan=plan, cache=cache)
        np.testing.assert_allclose(
            encoder.model.piece_embedding.weight.data,
            encoder2.model.piece_embedding.weight.data,
        )

    def test_domain_posttraining_changes_weights(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        plan = PretrainPlan.quick(seed=43)
        base = pretrained_encoder(None, plan=plan, cache=cache)
        domain = pretrained_encoder("restaurants", plan=plan, cache=cache)
        delta = np.abs(
            base.model.piece_embedding.weight.data - domain.model.piece_embedding.weight.data
        ).max()
        assert delta > 1e-6
