"""Composite differentiable functions built from :class:`~repro.nn.tensor.Tensor` ops."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.tensor import Tensor
from repro.utils.numerics import log_softmax as _np_log_softmax

__all__ = [
    "softmax",
    "log_softmax",
    "cross_entropy",
    "binary_cross_entropy_with_logits",
    "dropout",
    "masked_fill",
]


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax as a differentiable composite."""
    shifted = x - x.data.max(axis=axis, keepdims=True)  # constant shift: safe to detach
    e = shifted.exp()
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax as a differentiable composite."""
    shifted = x - x.data.max(axis=axis, keepdims=True)
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    mask: Optional[np.ndarray] = None,
) -> Tensor:
    """Mean token-level cross entropy.

    Parameters
    ----------
    logits:
        ``(..., C)`` unnormalised scores.
    targets:
        integer class indices with shape ``logits.shape[:-1]``.
    mask:
        optional boolean/float array of the same shape as ``targets``;
        positions with mask 0 are excluded from the mean.
    """
    targets = np.asarray(targets, dtype=np.intp)
    log_probs = log_softmax(logits, axis=-1)
    flat = log_probs.reshape(-1, logits.shape[-1])
    idx = (np.arange(flat.shape[0], dtype=np.intp), targets.reshape(-1))
    picked = flat[idx]
    if mask is None:
        return -picked.mean()
    weights = np.asarray(mask, dtype=np.float64).reshape(-1)
    total = max(weights.sum(), 1.0)
    return -(picked * weights).sum() * (1.0 / total)


def binary_cross_entropy_with_logits(
    logits: Tensor,
    targets: np.ndarray,
    pos_weight: float = 1.0,
) -> Tensor:
    """Mean binary cross-entropy on raw logits (stable composite).

    Uses ``max(x, 0) - x*y + log(1 + exp(-|x|))``.  ``pos_weight`` scales the
    loss of positive examples (useful when training labels under-report the
    positive class, as weak supervision tends to).
    """
    targets = np.asarray(targets, dtype=np.float64)
    x = logits
    relu_x = x.relu()
    # log(1 + exp(-|x|)) computed differentiably: the sign pattern is constant
    # w.r.t. x, so -|x| = x * (-sign(x)) is an exact differentiable rewrite.
    sign = np.sign(x.data)
    neg_abs = x * (-sign)
    softplus = (neg_abs.exp() + 1.0).log()
    loss = relu_x - x * targets + softplus
    if pos_weight != 1.0:
        weights = np.where(targets > 0.5, pos_weight, 1.0)
        return (loss * weights).sum() * (1.0 / weights.sum())
    return loss.mean()


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep).astype(np.float64) / keep
    return x * mask


def masked_fill(x: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Set positions where ``mask`` is True to ``value`` (no gradient there)."""
    mask = np.asarray(mask, dtype=bool)
    filler = Tensor(np.full(x.shape, value, dtype=np.float64))
    return Tensor.where(~mask, x, filler)
