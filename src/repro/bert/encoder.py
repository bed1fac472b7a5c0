"""Tokenizer + model bundle: the embedding layer every downstream model uses."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.bert.config import MiniBertConfig
from repro.bert.model import BatchEncoding, MiniBert
from repro.bert.tokenizer import WordPieceTokenizer
from repro.nn.tensor import Tensor
from repro.utils.locks import make_lock

__all__ = ["BertWordEncoder"]


class BertWordEncoder:
    """Convenience facade pairing a tokenizer with a :class:`MiniBert`.

    Exposes the three views downstream code needs:

    * ``encode`` — contextual word vectors + padding mask for a batch;
    * ``word_embeddings`` — the *input* (pre-transformer) word embeddings,
      which is where FGSM perturbations are applied;
    * ``attention`` — word-level attention maps for one sentence (the
      pairing heuristic's raw material).
    """

    def __init__(self, tokenizer: WordPieceTokenizer, model: MiniBert):
        self.tokenizer = tokenizer
        self.model = model
        #: held from the capturing forward until its maps are read: the
        #: maps live on the shared model, so a concurrent caller's forward
        #: would otherwise replace them in between.
        self._attention_lock = make_lock("bert.encoder.attention")

    @property
    def dim(self) -> int:
        return self.model.config.dim

    @property
    def config(self) -> MiniBertConfig:
        return self.model.config

    # --------------------------------------------------------------- encoding

    def batch(self, sentences: Sequence[Sequence[str]]) -> BatchEncoding:
        """Tokenise and pad a batch of word sequences."""
        encoded = [self.tokenizer.encode_words(list(s)) for s in sentences]
        return BatchEncoding.from_piece_lists(
            encoded,
            self.tokenizer.pad_id,
            self.model.config.max_pieces_per_word,
            max_words=self.model.config.max_positions,
        )

    def encode(
        self,
        sentences: Sequence[Sequence[str]],
        input_embeddings: Optional[Tensor] = None,
        batch: Optional[BatchEncoding] = None,
        capture_attention: bool = False,
    ) -> Tuple[Tensor, np.ndarray, BatchEncoding]:
        """Contextual word vectors ``(B, T, dim)``, word mask, and the batch."""
        batch = batch or self.batch(sentences)
        hidden = self.model.forward(
            batch, input_embeddings=input_embeddings, capture_attention=capture_attention
        )
        return hidden, batch.word_mask, batch

    def word_embeddings(self, batch: BatchEncoding) -> Tensor:
        """Input word embeddings (piece-pooled), pre-position/pre-encoder."""
        return self.model.embed_words(batch)

    # ------------------------------------------------------------- attention

    def attention(self, tokens: Sequence[str]) -> np.ndarray:
        """Word-level attention maps for one sentence: ``(L, H, T, T)``."""
        from repro.nn.tensor import no_grad

        with self._attention_lock:
            with no_grad():
                self.encode([list(tokens)], capture_attention=True)
            maps = self.model.attention_maps()
        steps = len(tokens)
        return np.stack([m[0, :, :steps, :steps] for m in maps], axis=0)

    # ------------------------------------------------------------------ modes

    def train(self) -> "BertWordEncoder":
        self.model.train()
        return self

    def eval(self) -> "BertWordEncoder":
        self.model.eval()
        return self
