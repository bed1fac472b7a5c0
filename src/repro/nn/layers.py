"""Core feed-forward layers: Linear, Embedding, LayerNorm, Dropout, Sequential."""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.nn import init
from repro.nn.functional import dropout as _dropout
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor

__all__ = ["Linear", "Embedding", "LayerNorm", "Dropout", "Sequential", "Tanh", "ReLU", "GELU"]


class Linear(Module):
    """Affine map ``y = x W^T + b`` over the last axis."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator, bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform(rng, (out_features, in_features)))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        out = x.matmul(self.weight.swapaxes(0, 1))
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(self, num_embeddings: int, embedding_dim: int, rng: np.random.Generator, std: float = 0.02):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(init.normal(rng, (num_embeddings, embedding_dim), std=std))

    def __call__(self, ids: np.ndarray) -> Tensor:
        return self.weight.gather_rows(np.asarray(ids, dtype=np.intp))


class LayerNorm(Module):
    """Layer normalisation over the last axis with learned scale/shift."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(np.ones((dim,), dtype=np.float64))
        self.beta = Parameter(np.zeros((dim,), dtype=np.float64))

    def __call__(self, x: Tensor) -> Tensor:
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        norm = centered / (var + self.eps).sqrt()
        return norm * self.gamma + self.beta


class Dropout(Module):
    """Inverted dropout with an owned random stream."""

    def __init__(self, p: float, rng: np.random.Generator):
        super().__init__()
        self.p = p
        self.rng = rng

    def __call__(self, x: Tensor) -> Tensor:
        return _dropout(x, self.p, self.rng, self.training)


class Tanh(Module):
    """Elementwise tanh as a module (for Sequential)."""

    def __call__(self, x: Tensor) -> Tensor:
        return x.tanh()


class ReLU(Module):
    """Elementwise ReLU as a module (for Sequential)."""

    def __call__(self, x: Tensor) -> Tensor:
        return x.relu()


class GELU(Module):
    """Elementwise GELU as a module (for Sequential)."""

    def __call__(self, x: Tensor) -> Tensor:
        return x.gelu()


class Sequential(Module):
    """Apply modules in order."""

    def __init__(self, modules: Sequence[Module]):
        super().__init__()
        self.steps: List[Module] = list(modules)

    def __call__(self, x):
        for step in self.steps:
            x = step(x)
        return x
