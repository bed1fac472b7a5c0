"""``repro.bert`` — the miniature BERT (HuggingFace-BERT substitute).

WordPiece-style tokenizer, a word-level transformer encoder with an MLM
head, general-corpus pre-training and in-domain post-training (the BERT-DK
analogue of Section 4.2), all cached on disk after first build.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "config": ("MiniBertConfig",),
        "corpus": ("domain_corpus", "general_corpus"),
        "encoder": ("BertWordEncoder",),
        "model": ("BatchEncoding", "MiniBert"),
        "pipeline": ("PretrainPlan", "pretrained_encoder"),
        "pretrain": ("MlmConfig", "pretrain_mlm"),
        "tokenizer": ("CLS", "MASK", "PAD", "SEP", "SPECIAL_TOKENS", "UNK", "WordPieceTokenizer"),
    },
)
