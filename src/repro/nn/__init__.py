"""``repro.nn`` — a from-scratch neural network library over numpy.

Provides the tape-based autodiff engine, layers (dense, embedding, layer
norm, dropout), recurrent (LSTM/BiLSTM) and attention/transformer encoders,
a linear-chain CRF, and optimisers.  It is the substrate replacing PyTorch
in this reproduction (see DESIGN.md §2).
"""

from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.crf import LinearChainCRF
from repro.nn.infer import (
    EquivalenceReport,
    InferenceModel,
    PRECISIONS,
    equivalence_report,
)
from repro.nn.layers import (
    GELU,
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    ReLU,
    Sequential,
    Tanh,
)
from repro.nn.module import Module, Parameter
from repro.nn.optim import Adam, SGD, clip_grad_norm
from repro.nn.rnn import BiLSTM, LSTM
from repro.nn.serialization import load_module, save_module
from repro.nn.tensor import Tensor, is_grad_enabled, no_grad
from repro.nn.transformer import TransformerEncoder, TransformerEncoderLayer

__all__ = [
    "Adam",
    "BiLSTM",
    "Dropout",
    "Embedding",
    "EquivalenceReport",
    "GELU",
    "InferenceModel",
    "LSTM",
    "LayerNorm",
    "Linear",
    "LinearChainCRF",
    "Module",
    "MultiHeadSelfAttention",
    "PRECISIONS",
    "Parameter",
    "ReLU",
    "SGD",
    "Sequential",
    "Tanh",
    "Tensor",
    "TransformerEncoder",
    "TransformerEncoderLayer",
    "clip_grad_norm",
    "equivalence_report",
    "is_grad_enabled",
    "load_module",
    "no_grad",
    "save_module",
]
