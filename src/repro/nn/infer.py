"""Tape-free fused inference path for the encoder stack (BERT→BiLSTM→proj).

The training forward builds a :class:`~repro.nn.tensor.Tensor` graph: every
op allocates a node, float64 everywhere, and activation derivatives are
computed eagerly even under ``no_grad`` (``gelu`` materialises its local
gradient whether or not anyone will backpropagate).  At inference time all
of that is waste — the encode stage dominates bucketed ingest (see the
``extract.encode_ms`` layer of the end-to-end benchmark).  This module is the dedicated inference-only forward:

* **Flat export** — :meth:`InferenceModel.from_tagger` copies every weight
  of a trained ``SequenceTagger`` (MiniBert encoder, BiLSTM, emission
  projection) into plain contiguous ndarrays, fused where the algebra
  allows: at float32 the three Q/K/V projections of each attention layer
  become one ``(3D, D)`` gemm operand, and each LayerNorm's scale/shift is
  re-materialised contiguously in the target dtype.
* **No tape, ever** — the forward is pure numpy; nothing in this module
  constructs a ``Tensor`` or touches ``requires_grad``.
* **Stateless** — a forward writes nothing to the model.  Every
  intermediate is an ordinary numpy result, freed when the forward
  returns, and :meth:`InferenceModel.emissions` returns a fresh array.
* **Reduced precision** — ``precision="float32"`` casts the exported
  weights once and runs the whole stack in float32.  The float64
  export replays the training forward's exact op order, so its emissions
  are **bitwise identical** to ``SequenceTagger.emissions`` — the
  oracle-pairing discipline of ``LinearChainCRF.decode_scalar`` applied
  to the encoder: the slow path stays as the reference, and
  :func:`equivalence_report` measures float32 against it.  Both
  precisions run one GELU (the cube as ``x * x * x``, the formula of
  ``Tensor.gelu``).  float32 is tolerance-bounded, not bitwise, so only
  its sigmoid takes a single-pass form that the float64 path may not.
* **Memoised word pooling** — duplicate words across a batch (piece-id
  rows that hash equal) are pooled from piece embeddings once and
  scattered to every occurrence.

Attention maps are not produced here: the pairing heuristic and Figure 5
read them from the tape MiniBert (``BertWordEncoder.attention``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.utils.numerics import sigmoid

__all__ = [
    "PRECISIONS",
    "InferenceModel",
    "EquivalenceReport",
    "equivalence_report",
]

#: supported inference precisions, slow-oracle first.
PRECISIONS = ("float64", "float32")

_NEG_INF = -1e9  # identical mask penalty to nn.attention


def _check_precision(precision: str) -> str:
    if precision not in PRECISIONS:
        raise ValueError(f"precision must be one of {PRECISIONS}, got {precision!r}")
    return precision


# --------------------------------------------------------------------------- fused blocks


@dataclass
class FusedAttention:
    """One attention layer's projections, exported for one precision.

    Weights keep the module's ``(out, in)`` row layout and are transposed
    as *views* at matmul time — the exact BLAS transpose path the training
    forward takes (a materialised transpose routes through a different
    gemm kernel with different rounding).

    Each precision exports only the Q/K/V operands its forward reads.
    float32 gets one fused ``(3D, D)`` operand (one gemm instead of three).
    The fused gemm is *not* bitwise-safe: at some geometries BLAS picks a
    different kernel for it than for three ``(D, D)`` operands and rounds
    differently.  So the float64 oracle export keeps the three separate
    projections (``wq``/``wk``/``wv``) and replays the module's exact gemm
    shapes instead.
    """

    wo: np.ndarray  #: ``(D, D)`` — output projection, module layout
    bo: np.ndarray  #: ``(D,)``
    num_heads: int
    head_dim: int
    #: float32 only: ``[Wq; Wk; Wv]`` stacked by rows, ``(3D, D)``.
    wqkv: Optional[np.ndarray] = None
    bqkv: Optional[np.ndarray] = None  #: ``(3D,)``
    #: float64 only: the unfused module projections.
    wq: Optional[np.ndarray] = None
    wk: Optional[np.ndarray] = None
    wv: Optional[np.ndarray] = None
    bq: Optional[np.ndarray] = None
    bk: Optional[np.ndarray] = None
    bv: Optional[np.ndarray] = None

    def arrays(self) -> List[np.ndarray]:
        """Every exported operand of this layer, each exactly once."""
        held = (self.wqkv, self.bqkv, self.wq, self.wk, self.wv,
                self.bq, self.bk, self.bv, self.wo, self.bo)
        return [a for a in held if a is not None]


@dataclass
class FusedLayer:
    """One transformer encoder block in flat-array form."""

    attention: FusedAttention
    norm_attn_gamma: np.ndarray
    norm_attn_beta: np.ndarray
    w_ffn_in: np.ndarray  #: ``(F, D)`` — module layout, ``.T`` view at use
    b_ffn_in: np.ndarray
    w_ffn_out: np.ndarray  #: ``(D, F)``
    b_ffn_out: np.ndarray
    norm_ffn_gamma: np.ndarray
    norm_ffn_beta: np.ndarray


@dataclass
class FusedLstm:
    """One LSTM direction: fused-gate operands in module layout."""

    w_ih: np.ndarray  #: ``(4H, input)``
    w_hh: np.ndarray  #: ``(4H, H)``
    bias: np.ndarray  #: ``(4H,)``
    hidden: int


def _sigmoid(x: np.ndarray, exact: bool = True) -> np.ndarray:
    """Stable logistic sigmoid, dtype-preserving.

    ``exact=True`` is :func:`repro.utils.numerics.sigmoid` itself, so the
    float64 path reproduces the training forward bitwise.  ``exact=False``
    (the float32 path, which is tolerance-bounded rather than bitwise) uses
    the single-pass ``1/(1+exp(-x))`` form in the input dtype: for very
    negative ``x`` the exp overflows to ``inf`` and the quotient lands on
    exactly ``0.0`` — the right limit — so only the overflow *warning*
    needs silencing.
    """
    if exact:
        return sigmoid(x)
    one = x.dtype.type(1.0)
    with np.errstate(over="ignore"):
        out = np.exp(-x)
        out += one
        np.divide(one, out, out=out)
    return out


def _gelu(x: np.ndarray) -> np.ndarray:
    """GELU (tanh approximation), forward only — no local-gradient term.

    Replays ``Tensor.gelu``'s forward ops in place, in the input dtype:
    ``c * (x + k * (x * x * x))`` with the cube built left to right, so the
    float64 path is bitwise equal to the tape.  The only reorderings are
    commuted operands and a moved scaling by 0.5, which is exact unless a
    product is subnormal.
    """
    c = x.dtype.type(np.sqrt(2.0 / np.pi))
    half = x.dtype.type(0.5)
    one = x.dtype.type(1.0)
    k = x.dtype.type(0.044715)
    inner = x * x
    inner *= x
    inner *= k
    inner += x
    inner *= c
    np.tanh(inner, out=inner)
    inner += one
    inner *= x
    inner *= half
    return inner


class InferenceModel:
    """Flat, fused, tape-free twin of a trained ``SequenceTagger``.

    Construction copies (and optionally casts) every weight; the model
    holds no reference to the live modules, so training can continue to
    mutate the tagger without corrupting an exported snapshot — staleness
    is the caller's contract (``SequenceTagger`` re-exports when its
    weights may have changed).  A forward writes nothing to the model:
    :meth:`emissions` is a pure function of the exported weights and
    geometry, and every intermediate is freed when it returns.
    """

    def __init__(self, precision: str = "float64"):
        self.precision = _check_precision(precision)
        self.dtype = np.dtype(np.float64 if precision == "float64" else np.float32)
        #: float64 replays the tape forward op-for-op (bitwise oracle
        #: pairing); float32 may take a faster, tolerance-bounded sigmoid.
        self.exact_ops = precision == "float64"
        # architecture geometry (filled by from_tagger)
        self.dim = 0
        self.num_heads = 0
        self.head_dim = 0
        self.ffn_dim = 0
        self.lstm_hidden = 0
        self.num_labels = 0
        self.layer_norm_eps = 1e-5
        self.max_positions = 0
        # flat weights
        self.piece_embedding: Optional[np.ndarray] = None
        self.position_embedding: Optional[np.ndarray] = None
        self.emb_gamma: Optional[np.ndarray] = None
        self.emb_beta: Optional[np.ndarray] = None
        self.layers: List[FusedLayer] = []
        self.lstm_fwd: Optional[FusedLstm] = None
        self.lstm_bwd: Optional[FusedLstm] = None
        self.w_proj: Optional[np.ndarray] = None
        self.b_proj: Optional[np.ndarray] = None

    # ----------------------------------------------------------------- export

    @classmethod
    def from_tagger(cls, tagger, precision: str = "float64") -> "InferenceModel":
        """Export a trained ``SequenceTagger``'s encoder stack.

        Fusions applied at export time:

        * Q/K/V (float32 only): three ``(D, D)`` projections concatenated
          into one ``(3D, D)`` operand — one gemm instead of three.
        * LayerNorm: gamma/beta re-materialised contiguously in the target
          dtype.
        """
        precision = _check_precision(precision)
        model = cls(precision)
        bert = tagger.bert
        config = bert.config
        model.dim = config.dim
        model.num_heads = config.num_heads
        model.head_dim = config.dim // config.num_heads
        model.ffn_dim = config.ffn_dim
        model.max_positions = config.max_positions
        model.lstm_hidden = tagger.bilstm.hidden_size
        model.num_labels = tagger.projection.out_features
        model.layer_norm_eps = bert.embedding_norm.eps

        def cast(array: np.ndarray) -> np.ndarray:
            """A contiguous copy of a weight in the target dtype."""
            array = np.ascontiguousarray(array, dtype=np.float64)
            return array if precision == "float64" else array.astype(np.float32)

        model.piece_embedding = cast(bert.piece_embedding.weight.data)
        model.position_embedding = cast(bert.position_embedding.weight.data)
        model.emb_gamma = cast(bert.embedding_norm.gamma.data)
        model.emb_beta = cast(bert.embedding_norm.beta.data)

        for layer in bert.encoder.layers:
            attn = layer.attention
            fused_attention = FusedAttention(
                wo=cast(attn.output.weight.data),
                bo=cast(attn.output.bias.data),
                num_heads=model.num_heads,
                head_dim=model.head_dim,
            )
            if precision == "float64":
                # The oracle path replays the module's three separate
                # projection gemms: at some geometries BLAS rounds the
                # fused (3D, D) operand differently, and this path's
                # contract is bitwise identity with the tape forward.
                fused_attention.wq = cast(attn.query.weight.data)
                fused_attention.wk = cast(attn.key.weight.data)
                fused_attention.wv = cast(attn.value.weight.data)
                fused_attention.bq = cast(attn.query.bias.data)
                fused_attention.bk = cast(attn.key.bias.data)
                fused_attention.bv = cast(attn.value.bias.data)
            else:
                # (3D, D): x @ wqkv.T yields [q | k | v] in one gemm; the .T
                # view at matmul time takes the same BLAS transpose path as
                # the Linear modules.
                fused_attention.wqkv = cast(np.concatenate(
                    [attn.query.weight.data, attn.key.weight.data, attn.value.weight.data],
                    axis=0,
                ))
                fused_attention.bqkv = cast(np.concatenate(
                    [attn.query.bias.data, attn.key.bias.data, attn.value.bias.data]
                ))
            model.layers.append(
                FusedLayer(
                    attention=fused_attention,
                    norm_attn_gamma=cast(layer.norm_attn.gamma.data),
                    norm_attn_beta=cast(layer.norm_attn.beta.data),
                    w_ffn_in=cast(layer.ffn_in.weight.data),
                    b_ffn_in=cast(layer.ffn_in.bias.data),
                    w_ffn_out=cast(layer.ffn_out.weight.data),
                    b_ffn_out=cast(layer.ffn_out.bias.data),
                    norm_ffn_gamma=cast(layer.norm_ffn.gamma.data),
                    norm_ffn_beta=cast(layer.norm_ffn.beta.data),
                )
            )

        def lstm(module) -> FusedLstm:
            return FusedLstm(
                w_ih=cast(module.w_ih.data),
                w_hh=cast(module.w_hh.data),
                bias=cast(module.bias.data),
                hidden=module.hidden_size,
            )

        model.lstm_fwd = lstm(tagger.bilstm.forward_lstm)
        model.lstm_bwd = lstm(tagger.bilstm.backward_lstm)
        model.w_proj = cast(tagger.projection.weight.data)
        model.b_proj = cast(tagger.projection.bias.data)
        return model

    # ------------------------------------------------------------------ sizes

    def num_parameters(self) -> int:
        """Total exported scalar count (embeddings + layers + LSTM + proj)."""
        total = 0
        for array in self._arrays():
            total += array.size
        return total

    def nbytes(self) -> int:
        """Resident weight bytes at this precision."""
        return sum(a.nbytes for a in self._arrays())

    def _arrays(self) -> List[np.ndarray]:
        out = [
            self.piece_embedding, self.position_embedding,
            self.emb_gamma, self.emb_beta,
            self.lstm_fwd.w_ih, self.lstm_fwd.w_hh, self.lstm_fwd.bias,
            self.lstm_bwd.w_ih, self.lstm_bwd.w_hh, self.lstm_bwd.bias,
            self.w_proj, self.b_proj,
        ]
        for layer in self.layers:
            out.extend(layer.attention.arrays())
            out.extend([
                layer.norm_attn_gamma, layer.norm_attn_beta,
                layer.w_ffn_in, layer.b_ffn_in,
                layer.w_ffn_out, layer.b_ffn_out,
                layer.norm_ffn_gamma, layer.norm_ffn_beta,
            ])
        return out

    # ---------------------------------------------------------------- forward

    def _layer_norm(self, x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
        """LayerNorm over the last axis.

        Op order mirrors ``nn.layers.LayerNorm`` exactly (mean, centered,
        variance-of-centered, normalise) so float64 stays bitwise equal;
        the learned scale/shift lands in place on the normalised result.
        """
        centered = x - np.mean(x, axis=-1, keepdims=True)
        var = np.mean(centered * centered, axis=-1, keepdims=True)
        var += self.dtype.type(self.layer_norm_eps)
        np.sqrt(var, out=var)
        centered /= var
        centered *= gamma
        centered += beta
        return centered

    def _pool_words(self, batch) -> np.ndarray:
        """Piece-embedding pooling with cross-batch word memoisation.

        Every distinct ``(piece_ids, piece_mask)`` row across the batch is
        pooled exactly once; duplicate words (dominating natural text)
        scatter the shared pooled row to all their positions.  Equality of
        the padded rows implies equality of the pooled vector, so the
        result matches the unmemoised pooling bitwise.
        """
        piece_ids = batch.piece_ids  # (B, T, P) int64
        piece_mask = batch.piece_mask  # (B, T, P)
        b, t, p = piece_ids.shape
        flat_ids = piece_ids.reshape(b * t, p)
        flat_mask = piece_mask.reshape(b * t, p)
        # Mask bits are implied by the ids only when pad_id never appears
        # inside a real word; hashing ids + mask together keeps this exact.
        fingerprint = np.concatenate(
            [flat_ids, flat_mask.astype(np.int64)], axis=1
        )
        unique, inverse = np.unique(fingerprint, axis=0, return_inverse=True)
        unique_ids = unique[:, :p]
        unique_mask = unique[:, p:].astype(self.dtype)
        vectors = self.piece_embedding[unique_ids]  # (U, P, D)
        weighted = vectors * unique_mask[..., None]
        counts = np.maximum(unique_mask.sum(axis=-1, keepdims=True), self.dtype.type(1.0))
        pooled = weighted.sum(axis=1) / counts  # (U, D)
        return pooled[inverse].reshape(b, t, self.dim)

    def encode(self, batch) -> np.ndarray:
        """Contextual word representations ``(B, T, dim)`` — MiniBert only."""
        b = batch.batch_size
        t = batch.num_words

        # Embedding: memoised word pooling + positions + LayerNorm.
        hidden = self._pool_words(batch)
        positions = np.arange(t, dtype=np.int64) % self.max_positions
        hidden += self.position_embedding[positions]
        hidden = self._layer_norm(hidden, self.emb_gamma, self.emb_beta)

        word_mask = np.ascontiguousarray(batch.word_mask, dtype=self.dtype)
        key_penalty = (self.dtype.type(1.0) - word_mask) * self.dtype.type(_NEG_INF)
        inv_sqrt = self.dtype.type(1.0 / np.sqrt(self.head_dim))

        for layer in self.layers:
            attn = layer.attention
            # --- attention ---------------------------------------------
            if attn.wqkv is None:
                # float64 oracle: the module's exact three-gemm shapes.
                q_lin = np.matmul(hidden, attn.wq.T)
                q_lin += attn.bq
                k_lin = np.matmul(hidden, attn.wk.T)
                k_lin += attn.bk
                v_lin = np.matmul(hidden, attn.wv.T)
                v_lin += attn.bv
                q = q_lin.reshape(b, t, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)
                k = k_lin.reshape(b, t, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)
                v = v_lin.reshape(b, t, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)
            else:
                qkv = np.matmul(hidden, attn.wqkv.T)
                qkv += attn.bqkv
                heads = qkv.reshape(b, t, 3, self.num_heads, self.head_dim)
                q = heads[:, :, 0].transpose(0, 2, 1, 3)  # (B, H, T, dh) views
                k = heads[:, :, 1].transpose(0, 2, 1, 3)
                v = heads[:, :, 2].transpose(0, 2, 1, 3)
            scores = np.matmul(q, k.transpose(0, 1, 3, 2))
            scores *= inv_sqrt
            scores += key_penalty[:, None, None, :]
            # softmax over keys, in place (same shifted-exp form as
            # nn.functional.softmax).
            scores -= scores.max(axis=-1, keepdims=True)
            np.exp(scores, out=scores)
            scores /= scores.sum(axis=-1, keepdims=True)
            context = np.matmul(scores, v)  # (B, H, T, dh)
            merged = context.transpose(0, 2, 1, 3).reshape(b, t, self.dim)
            attn_out = np.matmul(merged, attn.wo.T)
            attn_out += attn.bo
            hidden += attn_out
            hidden = self._layer_norm(hidden, layer.norm_attn_gamma, layer.norm_attn_beta)
            # --- feed-forward -------------------------------------------
            ffn_hidden = np.matmul(hidden, layer.w_ffn_in.T)
            ffn_hidden += layer.b_ffn_in
            ffn_hidden = _gelu(ffn_hidden)
            ffn_out = np.matmul(ffn_hidden, layer.w_ffn_out.T)
            ffn_out += layer.b_ffn_out
            hidden += ffn_out
            hidden = self._layer_norm(hidden, layer.norm_ffn_gamma, layer.norm_ffn_beta)
        return hidden

    def _lstm_direction(self, x: np.ndarray, mask: np.ndarray, weights: FusedLstm,
                        reverse: bool) -> np.ndarray:
        """One LSTM direction's hidden states ``(B, T, H)`` (no tape).

        The recurrence mirrors ``nn.rnn.LSTM`` op-for-op: precomputed input
        projection, per-step fused-gate gemv, masked carry-through.
        """
        b, t, _ = x.shape
        h_size = weights.hidden
        exact = self.exact_ops
        gates = np.matmul(x, weights.w_ih.T)
        gates += weights.bias
        h = np.zeros((b, h_size), dtype=x.dtype)
        c = np.zeros((b, h_size), dtype=x.dtype)
        out = np.empty((b, t, h_size), dtype=x.dtype)
        order = range(t - 1, -1, -1) if reverse else range(t)
        one = x.dtype.type(1.0)
        for step in order:
            z = np.matmul(h, weights.w_hh.T)
            z += gates[:, step, :]
            i_gate = _sigmoid(z[:, 0:h_size], exact=exact)
            f_gate = _sigmoid(z[:, h_size:2 * h_size], exact=exact)
            g_gate = np.tanh(z[:, 2 * h_size:3 * h_size])
            o_gate = _sigmoid(z[:, 3 * h_size:4 * h_size], exact=exact)
            c_new = f_gate * c + i_gate * g_gate
            h_new = o_gate * np.tanh(c_new)
            m = mask[:, step:step + 1]
            h = h_new * m + h * (one - m)
            c = c_new * m + c * (one - m)
            out[:, step, :] = h
        return out

    def emissions(self, batch) -> np.ndarray:
        """Per-token label scores ``(B, T, L)`` — the full encoder stack.

        Equivalent to ``SequenceTagger.emissions`` in eval mode (bitwise at
        float64, tolerance-bounded at float32); returns a fresh ndarray
        that feeds ``LinearChainCRF.decode`` directly.
        """
        hidden = self.encode(batch)
        mask = np.ascontiguousarray(batch.word_mask, dtype=self.dtype)
        features = np.concatenate(
            [
                self._lstm_direction(hidden, mask, self.lstm_fwd, reverse=False),
                self._lstm_direction(hidden, mask, self.lstm_bwd, reverse=True),
            ],
            axis=-1,
        )
        scores = np.matmul(features, self.w_proj.T)
        scores += self.b_proj
        return scores


# --------------------------------------------------------------------------- equivalence


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of one fused-vs-oracle comparison on a sentence batch."""

    precision: str
    max_abs_error: float
    mean_abs_error: float
    tolerance: float
    within_tolerance: bool
    tags_identical: bool

    def as_dict(self) -> Dict[str, object]:
        return {
            "precision": self.precision,
            "max_abs_error": self.max_abs_error,
            "mean_abs_error": self.mean_abs_error,
            "tolerance": self.tolerance,
            "within_tolerance": self.within_tolerance,
            "tags_identical": self.tags_identical,
        }


#: default emission-score tolerances per precision, sized to the observed
#: error profile of each path with comfortable margin: float64 replays the
#: oracle bitwise, float32 loses ~2^-24 per accumulation.
DEFAULT_TOLERANCES = {"float64": 0.0, "float32": 1e-3}


def equivalence_report(tagger, sentences, precision: str,
                       tolerance: Optional[float] = None) -> EquivalenceReport:
    """Compare an :class:`InferenceModel` against the float64 tape oracle.

    Runs both forwards on the same :class:`~repro.bert.model.BatchEncoding`
    and reports the emission-score error plus a *tag-identity witness*: the
    decoded label sequences (the system-visible output) must match exactly,
    the same oracle-pairing discipline as ``decode_scalar``.
    """
    from repro.nn.tensor import no_grad

    _check_precision(precision)
    if tolerance is None:
        tolerance = DEFAULT_TOLERANCES[precision]
    sentences = [list(s) for s in sentences]
    was_training = tagger.training
    tagger.eval()
    try:
        batch = tagger.encoder.batch(sentences)
        with no_grad():
            oracle, mask, _ = tagger.emissions(sentences, batch=batch)
        oracle_scores = oracle.data
        fused = InferenceModel.from_tagger(tagger, precision)
        fused_scores = np.asarray(fused.emissions(batch), dtype=np.float64)
        error = np.abs(fused_scores - oracle_scores)
        # Only score error at real token positions; padding never reaches
        # the decoder (mask freezes the Viterbi recurrence there).
        valid = np.asarray(mask, dtype=bool)
        max_error = float(error[valid].max()) if valid.any() else 0.0
        mean_error = float(error[valid].mean()) if valid.any() else 0.0
        if tagger.use_crf:
            oracle_paths = tagger.crf.decode(oracle_scores, mask=mask, beam=tagger.decode_beam)
            fused_paths = tagger.crf.decode(fused_scores, mask=mask, beam=tagger.decode_beam)
        else:
            oracle_paths = [
                [int(v) for v in row[: int(m.sum())]]
                for row, m in zip(oracle_scores.argmax(axis=-1), mask)
            ]
            fused_paths = [
                [int(v) for v in row[: int(m.sum())]]
                for row, m in zip(fused_scores.argmax(axis=-1), mask)
            ]
    finally:
        if was_training:
            tagger.train()
    return EquivalenceReport(
        precision=precision,
        max_abs_error=max_error,
        mean_abs_error=mean_error,
        tolerance=float(tolerance),
        within_tolerance=bool(max_error <= tolerance),
        tags_identical=bool(oracle_paths == fused_paths),
    )
