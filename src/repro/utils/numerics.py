"""Numerically stable primitives shared across the neural and IR stacks."""

from __future__ import annotations

import numpy as np

__all__ = ["logsumexp", "softmax", "log_softmax", "sigmoid", "one_hot", "stable_log"]

_EPS = 1e-12


def logsumexp(x: np.ndarray, axis: int = -1, keepdims: bool = False) -> np.ndarray:
    """Stable ``log(sum(exp(x)))`` along ``axis``."""
    m = np.max(x, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    out = np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True) + _EPS) + m
    if not keepdims:
        out = np.squeeze(out, axis=axis)
    return out


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax along ``axis``."""
    m = np.max(x, axis=axis, keepdims=True)
    e = np.exp(x - m)
    return e / np.sum(e, axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable log-softmax along ``axis``."""
    return x - logsumexp(x, axis=axis, keepdims=True)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Stable logistic sigmoid, float64 out.

    ``e = exp(-|x|)`` never overflows; ``1/(1+e)`` for ``x >= 0`` and
    ``e/(1+e)`` otherwise are the two stable halves, picked per element
    without boolean indexing.  ``minimum(x, -x)`` is ``-|x|`` but keeps a
    NaN's sign bit, so the result is bitwise equal to computing each half
    on its own partition of ``x``.
    """
    e = np.exp(np.minimum(x, -x))
    denom = 1.0 + e
    return np.where(x >= 0, 1.0 / denom, e / denom).astype(np.float64, copy=False)


def one_hot(indices: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot encode an integer array; output shape ``indices.shape + (num_classes,)``."""
    indices = np.asarray(indices)
    out = np.zeros(indices.shape + (num_classes,), dtype=np.float64)
    np.put_along_axis(out, indices[..., None], 1.0, axis=-1)
    return out


def stable_log(x: np.ndarray) -> np.ndarray:
    """``log(x)`` clipped away from zero to avoid ``-inf``."""
    return np.log(np.maximum(x, _EPS))
