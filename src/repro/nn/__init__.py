"""``repro.nn`` — a from-scratch neural network library over numpy.

Provides the tape-based autodiff engine, layers (dense, embedding, layer
norm, dropout), recurrent (LSTM/BiLSTM) and attention/transformer encoders,
a linear-chain CRF, and optimisers.  It is the substrate replacing PyTorch
in this reproduction (see DESIGN.md §2).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "attention": ("MultiHeadSelfAttention",),
        "crf": ("LinearChainCRF",),
        "infer": ("EquivalenceReport", "InferenceModel", "PRECISIONS", "equivalence_report"),
        "layers": (
            "Dropout",
            "Embedding",
            "GELU",
            "LayerNorm",
            "Linear",
            "ReLU",
            "Sequential",
            "Tanh",
        ),
        "module": ("Module", "Parameter"),
        "optim": ("Adam", "SGD", "clip_grad_norm"),
        "rnn": ("BiLSTM", "LSTM"),
        "serialization": ("load_module", "save_module"),
        "tensor": ("Tensor", "is_grad_enabled", "no_grad"),
        "transformer": ("TransformerEncoder", "TransformerEncoderLayer"),
    },
)
