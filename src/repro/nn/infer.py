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
  allows: the three Q/K/V projections of each attention layer become one
  ``(D, 3D)`` gemm operand, and each LayerNorm's scale/shift is folded
  into a single fused multiply-add pass in the target dtype.
* **No tape, ever** — the forward is pure numpy; nothing in this module
  constructs a ``Tensor`` or touches ``requires_grad``.
* **Preallocated scratch** — all large intermediates (QKV, attention
  scores/probs, FFN hidden, LSTM gates) live in per-geometry scratch
  buffers keyed by the ``(batch, words)`` shape of the length bucket, so
  the steady state of bucketed ingest performs zero per-call allocation
  for them; gemms write straight into scratch via ``out=``.
* **Reduced precision** — ``precision="float32"`` casts the exported
  weights once and runs the whole stack in float32.  The float64
  export replays the training forward's exact op order, so its emissions
  are **bitwise identical** to ``SequenceTagger.emissions`` — the
  oracle-pairing discipline of ``LinearChainCRF.decode_scalar`` applied
  to the encoder: the slow path stays as the reference, and
  :func:`equivalence_report` measures float32 against it.  float32 is
  tolerance-bounded, not bitwise, so it may additionally take
  single-pass formulations of sigmoid/gelu that the bitwise contract
  forbids the float64 path.
* **Memoised word pooling** — duplicate words across a batch (piece-id
  rows that hash equal) are pooled from piece embeddings once and
  scattered to every occurrence.
* **Opt-in attention capture** — the ``(B, H, T, T)`` per-layer attention
  stack is only materialised when ``capture_attention=True``; bulk ingest
  never asks for it, the pairing heuristic's per-sentence probe does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

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
    """One attention layer: Q/K/V fused into a single ``(D, 3D)`` gemm.

    Weights keep the module's ``(out, in)`` row layout and are transposed
    as *views* at matmul time — the exact BLAS transpose path the training
    forward takes (a materialised transpose routes through a different
    gemm kernel with different rounding).

    The fused gemm itself is *not* bitwise-safe: at some geometries BLAS
    picks a different kernel for the ``(D, 3D)`` operand than for three
    ``(D, D)`` ones and rounds differently.  The float64 oracle export
    therefore also keeps the three separate projections (``wq``/``wk``/
    ``wv``) and replays the module's exact gemm shapes; the reduced
    float32 path, which is tolerance-bounded, takes the fused fast path.
    """

    wqkv: np.ndarray  #: ``(3D, D)`` — ``[Wq; Wk; Wv]`` stacked by rows
    bqkv: np.ndarray  #: ``(3D,)``
    wo: np.ndarray  #: ``(D, D)`` — output projection, module layout
    bo: np.ndarray  #: ``(D,)``
    num_heads: int
    head_dim: int
    #: float64 oracle path only: the unfused module projections.
    wq: Optional[np.ndarray] = None
    wk: Optional[np.ndarray] = None
    wv: Optional[np.ndarray] = None
    bq: Optional[np.ndarray] = None
    bk: Optional[np.ndarray] = None
    bv: Optional[np.ndarray] = None


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


class _Scratch:
    """Preallocated per-geometry buffers for one ``(batch, words)`` shape.

    The bucketed extraction engine feeds fixed-size length buckets, so the
    same geometry recurs for the whole ingest pass; after the first call
    per geometry the forward allocates nothing for these intermediates.
    """

    def __init__(self, batch: int, words: int, dim: int, ffn: int, heads: int,
                 lstm_hidden: int, labels: int, dtype: np.dtype):
        head_dim = dim // heads
        self.hidden = np.empty((batch, words, dim), dtype=dtype)
        self.residual = np.empty((batch, words, dim), dtype=dtype)
        self.qkv = np.empty((batch, words, 3 * dim), dtype=dtype)
        self.scores = np.empty((batch, heads, words, words), dtype=dtype)
        self.context = np.empty((batch, heads, words, head_dim), dtype=dtype)
        self.merged = np.empty((batch, words, dim), dtype=dtype)
        self.attn_out = np.empty((batch, words, dim), dtype=dtype)
        self.ffn_hidden = np.empty((batch, words, ffn), dtype=dtype)
        self.ffn_out = np.empty((batch, words, dim), dtype=dtype)
        self.norm_mu = np.empty((batch, words, 1), dtype=dtype)
        self.norm_var = np.empty((batch, words, 1), dtype=dtype)
        self.ffn_tmp = np.empty((batch, words, ffn), dtype=dtype)
        self.gates_fwd = np.empty((batch, words, 4 * lstm_hidden), dtype=dtype)
        self.gates_bwd = np.empty((batch, words, 4 * lstm_hidden), dtype=dtype)
        self.features = np.empty((batch, words, 2 * lstm_hidden), dtype=dtype)
        self.emissions = np.empty((batch, words, labels), dtype=dtype)


def _sigmoid_into(x: np.ndarray, out: np.ndarray, exact: bool = True) -> np.ndarray:
    """Stable logistic sigmoid, dtype-preserving.

    ``exact=True`` keeps the branch structure of
    :func:`repro.utils.numerics.sigmoid` so the float64 path reproduces the
    training forward bitwise.  ``exact=False`` (the float32 path, which
    is tolerance-bounded rather than bitwise) uses the single-pass
    ``1/(1+exp(-x))`` form: for very negative ``x`` the exp overflows to
    ``inf`` and the quotient lands on exactly ``0.0`` — the right limit —
    so only the overflow *warning* needs silencing, and the fancy-indexed
    sign split (two partial passes plus mask allocations) disappears.
    """
    one = x.dtype.type(1.0)
    if exact:
        pos = x >= 0
        out[pos] = one / (one + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (one + ex)
        return out
    with np.errstate(over="ignore"):
        np.negative(x, out=out)
        np.exp(out, out=out)
        out += one
        np.divide(one, out, out=out)
    return out


def _gelu_into(x: np.ndarray, out: np.ndarray, tmp: Optional[np.ndarray] = None,
               exact: bool = True) -> np.ndarray:
    """GELU (tanh approximation), forward only — no local-gradient term.

    ``exact=True`` replays ``Tensor.gelu``'s forward ops (including its
    ``x**3`` via ``np.power``, which rounds differently from repeated
    multiplication) so the float64 path stays bitwise.  ``exact=False``
    builds the cube as ``x*x*x`` into ``tmp`` — np.power with an array
    operand takes the generic pow kernel, orders of magnitude slower than
    two multiplies — at a rounding difference far inside the reduced
    float32 tolerance.
    """
    c = x.dtype.type(np.sqrt(2.0 / np.pi))
    half = x.dtype.type(0.5)
    one = x.dtype.type(1.0)
    k = x.dtype.type(0.044715)
    if exact or tmp is None:
        inner = c * (x + k * x**3)
    else:
        inner = tmp
        np.multiply(x, x, out=inner)
        np.multiply(inner, x, out=inner)
        inner *= k
        inner += x
        inner *= c
    np.tanh(inner, out=inner)
    np.add(inner, one, out=inner)
    np.multiply(inner, x, out=out)
    out *= half
    return out


class InferenceModel:
    """Flat, fused, tape-free twin of a trained ``SequenceTagger``.

    Construction copies (and optionally casts) every weight; the model
    holds no reference to the live modules, so training can continue to
    mutate the tagger without corrupting an exported snapshot — staleness
    is the caller's contract (``SequenceTagger`` re-exports when its
    weights may have changed).
    """

    def __init__(self, precision: str = "float64"):
        self.precision = _check_precision(precision)
        self.dtype = np.dtype(np.float64 if precision == "float64" else np.float32)
        #: float64 replays the tape forward op-for-op (bitwise oracle
        #: pairing); float32 may take faster, tolerance-bounded
        #: formulations of sigmoid/gelu.
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
        #: per-layer attention maps of the last captured forward.
        self.last_attention: List[np.ndarray] = []
        self._scratch: Dict[Tuple[int, int], _Scratch] = {}

    # ----------------------------------------------------------------- export

    @classmethod
    def from_tagger(cls, tagger, precision: str = "float64") -> "InferenceModel":
        """Export a trained ``SequenceTagger``'s encoder stack.

        Fusions applied at export time:

        * Q/K/V: three ``(D, D)`` projections concatenated (transposed)
          into one ``(D, 3D)`` operand — one gemm instead of three.
        * LayerNorm: gamma/beta re-materialised contiguously in the target
          dtype so the scale/shift applies as one fused multiply-add.
        * LSTM: input/hidden gate matrices pre-transposed to the
          ``x @ W`` layout the recurrence consumes.
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

        for index, layer in enumerate(bert.encoder.layers):
            attn = layer.attention
            # (3D, D): x @ wqkv.T yields [q | k | v] in one gemm; the .T
            # view at matmul time takes the same BLAS transpose path as the
            # Linear modules.
            wqkv64 = np.concatenate(
                [attn.query.weight.data, attn.key.weight.data, attn.value.weight.data],
                axis=0,
            )
            bqkv64 = np.concatenate(
                [attn.query.bias.data, attn.key.bias.data, attn.value.bias.data]
            )
            fused_attention = FusedAttention(
                wqkv=cast(wqkv64),
                bqkv=cast(bqkv64),
                wo=cast(attn.output.weight.data),
                bo=cast(attn.output.bias.data),
                num_heads=model.num_heads,
                head_dim=model.head_dim,
            )
            if precision == "float64":
                # The oracle path replays the module's three separate
                # projection gemms: at some geometries BLAS rounds the
                # fused (D, 3D) operand differently, and this path's
                # contract is bitwise identity with the tape forward.
                fused_attention.wq = cast(attn.query.weight.data)
                fused_attention.wk = cast(attn.key.weight.data)
                fused_attention.wv = cast(attn.value.weight.data)
                fused_attention.bq = cast(attn.query.bias.data)
                fused_attention.bk = cast(attn.key.bias.data)
                fused_attention.bv = cast(attn.value.bias.data)
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
            out.extend([
                layer.attention.wqkv, layer.attention.bqkv,
                layer.attention.wo, layer.attention.bo,
                layer.norm_attn_gamma, layer.norm_attn_beta,
                layer.w_ffn_in, layer.b_ffn_in,
                layer.w_ffn_out, layer.b_ffn_out,
                layer.norm_ffn_gamma, layer.norm_ffn_beta,
            ])
        return out

    # ---------------------------------------------------------------- scratch

    def _scratch_for(self, batch: int, words: int) -> _Scratch:
        key = (batch, words)
        scratch = self._scratch.get(key)
        if scratch is None:
            scratch = _Scratch(
                batch, words, self.dim, self.ffn_dim, self.num_heads,
                self.lstm_hidden, self.num_labels, self.dtype,
            )
            # Buckets repeat a handful of geometries; keep the pool bounded
            # so adversarial length mixes cannot grow it without limit.
            if len(self._scratch) >= 32:
                self._scratch.pop(next(iter(self._scratch)))
            self._scratch[key] = scratch
        return scratch

    # ---------------------------------------------------------------- forward

    def _layer_norm_inplace(self, x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                            scratch: _Scratch) -> None:
        """LayerNorm over the last axis, written back into ``x``.

        Op order mirrors ``nn.layers.LayerNorm`` exactly (mean, centered,
        variance-of-centered, normalise) so float64 stays bitwise equal;
        the learned scale/shift lands as one fused multiply-add.
        """
        mu = scratch.norm_mu
        var = scratch.norm_var
        np.mean(x, axis=-1, keepdims=True, out=mu)
        np.subtract(x, mu, out=x)
        np.multiply(x, x, out=scratch.residual)
        np.mean(scratch.residual, axis=-1, keepdims=True, out=var)
        var += self.dtype.type(self.layer_norm_eps)
        np.sqrt(var, out=var)
        np.divide(x, var, out=x)
        np.multiply(x, gamma, out=x)
        np.add(x, beta, out=x)

    def _pool_words(self, batch, out: np.ndarray) -> np.ndarray:
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
        np.copyto(out, pooled[inverse].reshape(b, t, self.dim))
        return out

    def encode(self, batch, capture_attention: bool = False) -> np.ndarray:
        """Contextual word representations ``(B, T, dim)`` — MiniBert only.

        ``capture_attention=True`` additionally materialises the per-layer
        ``(B, H, T, T)`` attention stacks into :attr:`last_attention`; by
        default nothing beyond reusable scratch is allocated for them.
        """
        b = batch.batch_size
        t = batch.num_words
        scratch = self._scratch_for(b, t)
        hidden = scratch.hidden
        self.last_attention = []

        # Embedding: memoised word pooling + positions + LayerNorm.
        self._pool_words(batch, hidden)
        positions = np.arange(t, dtype=np.int64) % self.max_positions
        hidden += self.position_embedding[positions]
        self._layer_norm_inplace(hidden, self.emb_gamma, self.emb_beta, scratch)

        word_mask = np.ascontiguousarray(batch.word_mask, dtype=self.dtype)
        key_penalty = (self.dtype.type(1.0) - word_mask) * self.dtype.type(_NEG_INF)
        inv_sqrt = self.dtype.type(1.0 / np.sqrt(self.head_dim))

        for layer in self.layers:
            attn = layer.attention
            # --- fused attention ---------------------------------------
            if attn.wq is not None:
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
                np.matmul(hidden, attn.wqkv.T, out=scratch.qkv)
                scratch.qkv += attn.bqkv
                heads = scratch.qkv.reshape(b, t, 3, self.num_heads, self.head_dim)
                q = heads[:, :, 0].transpose(0, 2, 1, 3)  # (B, H, T, dh) views
                k = heads[:, :, 1].transpose(0, 2, 1, 3)
                v = heads[:, :, 2].transpose(0, 2, 1, 3)
            np.matmul(q, k.transpose(0, 1, 3, 2), out=scratch.scores)
            scratch.scores *= inv_sqrt
            scratch.scores += key_penalty[:, None, None, :]
            # softmax over keys, in place (same shifted-exp form as
            # nn.functional.softmax).
            shift = scratch.scores.max(axis=-1, keepdims=True)
            scratch.scores -= shift
            np.exp(scratch.scores, out=scratch.scores)
            scratch.scores /= scratch.scores.sum(axis=-1, keepdims=True)
            if capture_attention:
                self.last_attention.append(scratch.scores.copy())
            np.matmul(scratch.scores, v, out=scratch.context)
            # (B,H,T,dh) → (B,T,D) merge lands in scratch (a reshape of the
            # transposed view would have to copy-allocate every call).
            np.copyto(
                scratch.merged.reshape(b, t, self.num_heads, self.head_dim),
                scratch.context.transpose(0, 2, 1, 3),
            )
            np.matmul(scratch.merged, attn.wo.T, out=scratch.attn_out)
            scratch.attn_out += attn.bo
            hidden += scratch.attn_out
            self._layer_norm_inplace(
                hidden, layer.norm_attn_gamma, layer.norm_attn_beta, scratch
            )
            # --- feed-forward -------------------------------------------
            np.matmul(hidden, layer.w_ffn_in.T, out=scratch.ffn_hidden)
            scratch.ffn_hidden += layer.b_ffn_in
            _gelu_into(scratch.ffn_hidden, scratch.ffn_hidden,
                       tmp=scratch.ffn_tmp, exact=self.exact_ops)
            np.matmul(scratch.ffn_hidden, layer.w_ffn_out.T, out=scratch.ffn_out)
            scratch.ffn_out += layer.b_ffn_out
            hidden += scratch.ffn_out
            self._layer_norm_inplace(
                hidden, layer.norm_ffn_gamma, layer.norm_ffn_beta, scratch
            )
        return hidden

    def _lstm_direction(self, x: np.ndarray, mask: np.ndarray, weights: FusedLstm,
                        gates: np.ndarray, out: np.ndarray, reverse: bool) -> None:
        """One LSTM direction into ``out[:, :, :H]`` (no tape, no stacking).

        The recurrence mirrors ``nn.rnn.LSTM`` op-for-op: precomputed input
        projection, per-step fused-gate gemv, masked carry-through.
        """
        b, t, _ = x.shape
        h_size = weights.hidden
        exact = self.exact_ops
        np.matmul(x, weights.w_ih.T, out=gates)
        gates += weights.bias
        h = np.zeros((b, h_size), dtype=x.dtype)
        c = np.zeros((b, h_size), dtype=x.dtype)
        z = np.empty((b, 4 * h_size), dtype=x.dtype)
        gate_buf = np.zeros((b, 4 * h_size), dtype=x.dtype)
        order = range(t - 1, -1, -1) if reverse else range(t)
        one = x.dtype.type(1.0)
        for step in order:
            np.matmul(h, weights.w_hh.T, out=z)
            z += gates[:, step, :]
            i_gate = _sigmoid_into(z[:, 0:h_size], gate_buf[:, 0:h_size], exact=exact)
            f_gate = _sigmoid_into(z[:, h_size:2 * h_size], gate_buf[:, h_size:2 * h_size], exact=exact)
            g_gate = np.tanh(z[:, 2 * h_size:3 * h_size])
            o_gate = _sigmoid_into(z[:, 3 * h_size:4 * h_size], gate_buf[:, 3 * h_size:4 * h_size], exact=exact)
            c_new = f_gate * c + i_gate * g_gate
            h_new = o_gate * np.tanh(c_new)
            m = mask[:, step:step + 1]
            h = h_new * m + h * (one - m)
            c = c_new * m + c * (one - m)
            out[:, step, :] = h

    def emissions(self, batch, capture_attention: bool = False) -> np.ndarray:
        """Per-token label scores ``(B, T, L)`` — the full encoder stack.

        Equivalent to ``SequenceTagger.emissions`` in eval mode (bitwise at
        float64, tolerance-bounded at float32); returns a plain
        ndarray that feeds ``LinearChainCRF.decode`` directly.
        """
        hidden = self.encode(batch, capture_attention=capture_attention)
        b = batch.batch_size
        t = batch.num_words
        scratch = self._scratch_for(b, t)
        mask = np.ascontiguousarray(batch.word_mask, dtype=self.dtype)
        h = self.lstm_hidden
        self._lstm_direction(
            hidden, mask, self.lstm_fwd, scratch.gates_fwd,
            scratch.features[:, :, 0:h], reverse=False,
        )
        self._lstm_direction(
            hidden, mask, self.lstm_bwd, scratch.gates_bwd,
            scratch.features[:, :, h:2 * h], reverse=True,
        )
        np.matmul(scratch.features, self.w_proj.T, out=scratch.emissions)
        scratch.emissions += self.b_proj
        return scratch.emissions

    def attention_maps(self) -> List[np.ndarray]:
        """Captured per-layer ``(B, H, T, T)`` attention of the last
        ``capture_attention=True`` forward (empty otherwise)."""
        return self.last_attention


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
