"""The sequence tagger: BERT → BiLSTM → CRF (Section 4.1, Figure 3).

Contextual word vectors from the miniature BERT feed a BiLSTM whose output
is projected to per-label emission scores; a linear-chain CRF decodes the
IOB sequence under learned (and IOB-grammar-constrained) transitions.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.bert.encoder import BertWordEncoder
from repro.bert.model import BatchEncoding
from repro.nn import BiLSTM, Dropout, LinearChainCRF, Linear, Module
from repro.nn.infer import PRECISIONS, InferenceModel
from repro.nn.tensor import Tensor
from repro.text.labels import ID_TO_LABEL, LABEL_TO_ID, NUM_LABELS, forbidden_transitions, labels_to_spans
from repro.utils.timing import StageTimings

__all__ = ["SequenceTagger"]


class SequenceTagger(Module):
    """BERT + BiLSTM + CRF token tagger over word sequences."""

    def __init__(
        self,
        encoder: BertWordEncoder,
        rng: np.random.Generator,
        lstm_hidden: int = 48,
        dropout: float = 0.1,
        decode_beam: Optional[int] = None,
        use_crf: bool = True,
        encoder_precision: str = "float64",
    ):
        super().__init__()
        self.encoder = encoder
        # BERT is part of the trained model (fine-tuned with the tagger), so
        # its attention heads become task-aware — which Section 5.1's
        # attention pairing heuristic relies on.
        self.bert = encoder.model
        self.bilstm = BiLSTM(encoder.dim, lstm_hidden, rng)
        self.dropout = Dropout(dropout, np.random.default_rng(int(rng.integers(2**32))))
        self.projection = Linear(2 * lstm_hidden, NUM_LABELS, rng)
        #: ablation switch: without the CRF, training is per-token cross
        #: entropy and decoding is independent argmax (no IOB constraints).
        self.use_crf = use_crf
        if use_crf:
            self.crf = LinearChainCRF(NUM_LABELS, rng)
            self.crf.constrain_transitions(forbidden_transitions())
        self.decode_beam = decode_beam
        #: default precision for :meth:`predict`'s tape-free fused path.
        #: ``"float64"`` replays the training forward bitwise; ``"float32"``
        #: trades tolerance-bounded emission error for speed.
        if encoder_precision not in PRECISIONS:
            raise ValueError(
                f"encoder_precision must be one of {PRECISIONS}, got {encoder_precision!r}"
            )
        self.encoder_precision = encoder_precision
        # Exported InferenceModels keyed by precision, invalidated by the
        # weights version: train() and load_state_dict() are the sanctioned
        # "weights may have changed" signals and each bumps the counter.
        self._infer_models: dict = {}
        self._infer_version = 0

    # ------------------------------------------------------------- inference

    def train(self) -> "SequenceTagger":
        self._infer_version += 1
        return super().train()

    def load_state_dict(self, state) -> None:
        self._infer_version += 1
        super().load_state_dict(state)

    def inference_model(self, precision: Optional[str] = None) -> InferenceModel:
        """The tape-free fused export of this tagger at ``precision``.

        Exports lazily and caches per precision; a cached model is reused
        until the weights version moves (any :meth:`train` or
        :meth:`load_state_dict` call), so steady-state extraction exports
        once and then runs allocation-free.
        """
        precision = precision or self.encoder_precision
        cached = self._infer_models.get(precision)
        if cached is not None and cached[0] == self._infer_version:
            return cached[1]
        model = InferenceModel.from_tagger(self, precision)
        self._infer_models[precision] = (self._infer_version, model)
        return model

    # ---------------------------------------------------------------- forward

    def emissions(
        self,
        sentences: Sequence[Sequence[str]],
        batch: Optional[BatchEncoding] = None,
        input_embeddings: Optional[Tensor] = None,
    ) -> Tuple[Tensor, np.ndarray, BatchEncoding]:
        """Per-token label scores ``(B, T, L)`` plus mask and batch encoding.

        ``input_embeddings`` substitutes (possibly perturbed) word embeddings
        — the adversarial training path.
        """
        batch = batch or self.encoder.batch(sentences)
        hidden = self.bert.forward(batch, input_embeddings=input_embeddings)
        features = self.bilstm(self.dropout(hidden), mask=batch.word_mask)
        return self.projection(features), batch.word_mask, batch

    def loss(
        self,
        sentences: Sequence[Sequence[str]],
        label_ids: np.ndarray,
        batch: Optional[BatchEncoding] = None,
        input_embeddings: Optional[Tensor] = None,
    ) -> Tensor:
        """Training loss: CRF negative log-likelihood (or token CE w/o CRF)."""
        emissions, mask, batch = self.emissions(sentences, batch=batch, input_embeddings=input_embeddings)
        width = emissions.shape[1]
        if self.use_crf:
            return self.crf.neg_log_likelihood(emissions, label_ids[:, :width], mask=mask)
        from repro.nn import functional as F

        return F.cross_entropy(emissions, label_ids[:, :width], mask=mask)

    # --------------------------------------------------------------- decoding

    def predict(
        self,
        sentences: Sequence[Sequence[str]],
        timings: Optional["StageTimings"] = None,
        precision: Optional[str] = None,
    ) -> List[List[str]]:
        """IOB label sequences for a batch of tokenised sentences.

        Runs the tape-free fused inference path (:mod:`repro.nn.infer`) at
        ``precision`` (default :attr:`encoder_precision`); the float64
        export is bitwise identical to the autograd forward, so the default
        behaviour is unchanged while skipping all tape construction.

        ``timings`` (a :class:`~repro.utils.timing.StageTimings`) receives
        ``encode`` (BERT→BiLSTM→projection forward) and ``decode`` (Viterbi
        / argmax) spans — how the extraction engine attributes ingest time.
        """
        if not sentences:
            return []
        was_training = self.training
        self.eval()
        try:
            encode_span = timings.span("encode") if timings is not None else nullcontext()
            with encode_span:
                model = self.inference_model(precision)
                batch = self.encoder.batch(sentences)
                scores = model.emissions(batch)
                mask = batch.word_mask
            decode_span = timings.span("decode") if timings is not None else nullcontext()
            with decode_span:
                if self.use_crf:
                    paths = self.crf.decode(
                        np.asarray(scores, dtype=np.float64), mask=mask, beam=self.decode_beam
                    )
                else:
                    argmax = scores.argmax(axis=-1)
                    paths = [
                        [int(v) for v in row[: int(m.sum())]] for row, m in zip(argmax, mask)
                    ]
        finally:
            # An exception mid-decode must not leave the model stuck in
            # eval mode (dropout silently disabled for the rest of training).
            if was_training:
                self.train()
        labels = [[ID_TO_LABEL[i] for i in path] for path in paths]
        # Pad back to the original sentence length if the encoder truncated.
        out: List[List[str]] = []
        for sentence, seq in zip(sentences, labels):
            if len(seq) < len(sentence):
                seq = seq + ["O"] * (len(sentence) - len(seq))
            out.append(seq[: len(sentence)])
        return out

    def extract_spans(self, tokens: Sequence[str]) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]:
        """(aspect_spans, opinion_spans) for one sentence."""
        labels = self.predict([list(tokens)])[0]
        return labels_to_spans(labels)

    # ------------------------------------------------------------------ utils

    @staticmethod
    def encode_labels(label_sequences: Sequence[Sequence[str]], width: Optional[int] = None) -> np.ndarray:
        """Dense ``(B, T)`` label-id array padded with O."""
        width = width or max(len(seq) for seq in label_sequences)
        out = np.full((len(label_sequences), width), LABEL_TO_ID["O"], dtype=np.int64)
        for i, seq in enumerate(label_sequences):
            for j, label in enumerate(seq[:width]):
                out[i, j] = LABEL_TO_ID[label]
        return out
