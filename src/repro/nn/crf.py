"""Linear-chain conditional random field (Section 4.1, Eqs. 4–5).

The CRF sits on top of per-token emission scores and models label-label
transitions so that, e.g., ``I-AS`` can only follow ``B-AS``/``I-AS``.
Training maximises the conditional log-likelihood (forward algorithm for the
partition function); decoding is Viterbi, optionally restricted to a beam as
the paper describes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor

__all__ = ["LinearChainCRF"]


def _logsumexp_tensor(x: Tensor, axis: int) -> Tensor:
    """Differentiable logsumexp (the max shift is treated as a constant)."""
    shift = x.data.max(axis=axis, keepdims=True)
    out = (x - shift).exp().sum(axis=axis, keepdims=True).log() + shift
    # Drop the reduced axis.
    new_shape = list(out.shape)
    del new_shape[axis]
    return out.reshape(*new_shape)


class LinearChainCRF(Module):
    """CRF layer with learned transition, start and end potentials."""

    def __init__(self, num_labels: int, rng: np.random.Generator):
        super().__init__()
        self.num_labels = num_labels
        self.transitions = Parameter(rng.normal(0.0, 0.1, size=(num_labels, num_labels)))
        self.start = Parameter(rng.normal(0.0, 0.1, size=(num_labels,)))
        self.end = Parameter(rng.normal(0.0, 0.1, size=(num_labels,)))

    # -------------------------------------------------------------- training

    def neg_log_likelihood(
        self,
        emissions: Tensor,
        tags: np.ndarray,
        mask: Optional[np.ndarray] = None,
    ) -> Tensor:
        """Mean negative conditional log-likelihood of the gold paths.

        Parameters
        ----------
        emissions:
            ``(B, T, L)`` per-token label scores.
        tags:
            ``(B, T)`` gold label ids.
        mask:
            ``(B, T)`` validity mask (1 for real tokens).
        """
        batch, steps, _ = emissions.shape
        if mask is None:
            mask = np.ones((batch, steps), dtype=np.float64)
        mask = np.asarray(mask, dtype=np.float64)
        gold = self._path_score(emissions, np.asarray(tags, dtype=np.intp), mask)
        partition = self._partition(emissions, mask)
        nll = (partition - gold).sum() * (1.0 / batch)
        return nll

    def _path_score(self, emissions: Tensor, tags: np.ndarray, mask: np.ndarray) -> Tensor:
        batch, steps, _ = emissions.shape
        batch_idx = np.arange(batch, dtype=np.intp)
        lengths = mask.sum(axis=1).astype(int)
        last_idx = np.maximum(lengths - 1, 0)
        last_tags = tags[batch_idx, last_idx]

        score = self.start[tags[:, 0]] + emissions[batch_idx, 0, tags[:, 0]]
        for t in range(1, steps):
            m = mask[:, t]
            trans = self.transitions[tags[:, t - 1], tags[:, t]]
            emit = emissions[batch_idx, t, tags[:, t]]
            score = score + (trans + emit) * m
        score = score + self.end[last_tags]
        return score

    def _partition(self, emissions: Tensor, mask: np.ndarray) -> Tensor:
        batch, steps, num_labels = emissions.shape
        alpha = self.start + emissions[:, 0, :]  # (B, L)
        for t in range(1, steps):
            # broadcast: (B, L_prev, 1) + (L_prev, L_next) + (B, 1, L_next)
            scores = (
                alpha.reshape(batch, num_labels, 1)
                + self.transitions
                + emissions[:, t, :].reshape(batch, 1, num_labels)
            )
            new_alpha = _logsumexp_tensor(scores, axis=1)  # (B, L)
            m = mask[:, t : t + 1]
            alpha = new_alpha * m + alpha * (1.0 - m)
        alpha = alpha + self.end
        return _logsumexp_tensor(alpha, axis=1)  # (B,)

    # -------------------------------------------------------------- decoding

    def decode(
        self,
        emissions: np.ndarray,
        mask: Optional[np.ndarray] = None,
        beam: Optional[int] = None,
    ) -> List[List[int]]:
        """Viterbi decoding (optionally beam-restricted) of a score batch.

        Dispatches to the fully vectorized whole-batch recurrence
        (:meth:`decode_batch`); :meth:`decode_scalar` is the original
        per-sentence Python loop, kept as the reference oracle the property
        tests compare against.

        Parameters
        ----------
        emissions:
            ``(B, T, L)`` plain numpy scores (no gradients needed to decode).
        mask:
            ``(B, T)`` validity mask.
        beam:
            if set, only the top-``beam`` states per step are expanded, as in
            the paper's Viterbi-with-beam-search decoder.  ``None`` (or a
            value >= L) gives exact Viterbi.

        Returns
        -------
        list of per-sequence label-id lists, each of the sequence's true length.
        """
        return self.decode_batch(emissions, mask=mask, beam=beam)

    def decode_batch(
        self,
        emissions: np.ndarray,
        mask: Optional[np.ndarray] = None,
        beam: Optional[int] = None,
    ) -> List[List[int]]:
        """Vectorized batch Viterbi: one ``(B, L, L)`` max-plus step per t.

        The recurrence runs over the whole batch at once.  Mask handling:
        at a padded step the score vector is frozen and the backpointer is
        the identity permutation, so the backtrace walks unchanged through
        padding until it reaches the sequence's true last step — per-row
        results are exactly those of :meth:`decode_scalar`.
        """
        emissions = np.asarray(emissions, dtype=np.float64)
        batch, steps, num_labels = emissions.shape
        if mask is None:
            mask = np.ones((batch, steps), dtype=np.float64)
        mask = np.asarray(mask, dtype=np.float64)
        if batch == 0 or steps == 0:
            return [[] for _ in range(batch)]
        lengths = mask.sum(axis=1).astype(int)
        transitions = self.transitions.data
        use_beam = beam is not None and beam < num_labels

        score = self.start.data + emissions[:, 0, :]  # (B, L)
        identity = np.broadcast_to(np.arange(num_labels, dtype=np.intp), (batch, num_labels))
        backpointers = np.empty((batch, steps, num_labels), dtype=np.int64)
        for t in range(1, steps):
            prev = score
            if use_beam:
                # Prune all but the top-`beam` predecessor states per row
                # (same argsort tie behaviour as the scalar oracle).
                # repro: disable=unstable-argsort — beam keeps a *set* of
                # states; both this path and decode_scalar use the default
                # kind, so tie selection is identical (property-tested).
                keep = np.argsort(prev, axis=1)[:, -beam:]
                pruned = np.full_like(prev, -np.inf)
                np.put_along_axis(pruned, keep, np.take_along_axis(prev, keep, axis=1), axis=1)
                prev = pruned
            total = prev[:, :, None] + transitions[None, :, :]  # (B, L_prev, L_next)
            best_prev = total.argmax(axis=1)  # (B, L_next)
            stepped = (
                np.take_along_axis(total, best_prev[:, None, :], axis=1)[:, 0, :]
                + emissions[:, t, :]
            )
            active = (mask[:, t] > 0)[:, None]
            score = np.where(active, stepped, score)
            backpointers[:, t, :] = np.where(active, best_prev, identity)
        score = score + self.end.data

        # Vectorized backtrace: frozen scores + identity backpointers make
        # the walk through padded steps a no-op, so every row's first
        # `length` positions hold its true Viterbi path.
        paths = np.empty((batch, steps), dtype=np.int64)
        rows = np.arange(batch, dtype=np.intp)
        current = score.argmax(axis=1)
        paths[:, steps - 1] = current
        for t in range(steps - 1, 0, -1):
            current = backpointers[rows, t, current]
            paths[:, t - 1] = current
        return [paths[b, : lengths[b]].tolist() for b in range(batch)]

    def decode_scalar(
        self,
        emissions: np.ndarray,
        mask: Optional[np.ndarray] = None,
        beam: Optional[int] = None,
    ) -> List[List[int]]:
        """Per-sentence Python Viterbi — the reference oracle for
        :meth:`decode_batch` (kept for equivalence tests and ablations)."""
        emissions = np.asarray(emissions, dtype=np.float64)
        batch, steps, num_labels = emissions.shape
        if mask is None:
            mask = np.ones((batch, steps), dtype=np.float64)
        mask = np.asarray(mask, dtype=np.float64)
        transitions = self.transitions.data
        start = self.start.data
        end = self.end.data
        use_beam = beam is not None and beam < num_labels

        results: List[List[int]] = []
        for b in range(batch):
            length = int(mask[b].sum())
            if length == 0:
                results.append([])
                continue
            score = start + emissions[b, 0]  # (L,)
            history: List[np.ndarray] = []
            for t in range(1, length):
                prev = score
                if use_beam:
                    # Prune all but the top-`beam` predecessor states.
                    # repro: disable=unstable-argsort — oracle twin of the
                    # batched beam prune above; must keep the same kind.
                    keep = np.argsort(prev)[-beam:]
                    pruned = np.full(num_labels, -np.inf, dtype=np.float64)
                    pruned[keep] = prev[keep]
                    prev = pruned
                total = prev[:, None] + transitions  # (L_prev, L_next)
                best_prev = np.argmax(total, axis=0)
                score = total[best_prev, np.arange(num_labels, dtype=np.intp)] + emissions[b, t]
                history.append(best_prev)
            score = score + end
            best_last = int(np.argmax(score))
            path = [best_last]
            for back in reversed(history):
                path.append(int(back[path[-1]]))
            path.reverse()
            results.append(path)
        return results

    def constrain_transitions(self, forbidden: Sequence[tuple], penalty: float = -1e4) -> None:
        """Hard-wire forbidden (from, to) label transitions with a large penalty.

        Used to encode IOB constraints (e.g. ``O -> I-AS`` impossible) without
        relying solely on training data.
        """
        for src, dst in forbidden:
            self.transitions.data[src, dst] = penalty
