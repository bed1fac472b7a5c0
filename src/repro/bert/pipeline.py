"""End-to-end construction of pre-trained encoders, with artifact caching.

``pretrained_encoder("restaurants")`` reproduces the paper's two-stage recipe
(Section 4.2): general-corpus MLM pre-training (the Wikipedia analogue)
followed by in-domain post-training on review text (the Xu et al. BERT-DK
analogue).  ``pretrained_encoder(None)`` stops after stage one — the plain
BERT used by the non-DK baselines.

Training a given configuration happens once per machine; weights and the
tokenizer are cached under the artifact cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.bert.config import MiniBertConfig
from repro.bert.encoder import BertWordEncoder
from repro.bert.model import MiniBert
from repro.bert.tokenizer import WordPieceTokenizer
from repro.nn.serialization import arrays_to_state, state_to_arrays
from repro.utils.caching import ArtifactCache, default_cache
from repro.utils.rng import SeedSequence

__all__ = ["PretrainPlan", "pretrained_encoder"]


@dataclass(frozen=True)
class PretrainPlan:
    """Everything that determines the weights (and hence the cache key)."""

    model: MiniBertConfig = MiniBertConfig()
    general_sentences: int = 4000
    general_steps: int = 1200
    domain_sentences: int = 2000
    domain_steps: int = 400
    batch_size: int = 32
    learning_rate: float = 2e-3
    seed: int = 2021
    #: bump when the corpus generators change, so stale caches are not reused.
    corpus_version: int = 2

    def cache_key(self, domain: Optional[str]) -> Dict[str, object]:
        key = dict(self.model.as_dict())
        key.update(
            corpus_version=self.corpus_version,
            general_sentences=self.general_sentences,
            general_steps=self.general_steps,
            domain_sentences=self.domain_sentences,
            domain_steps=self.domain_steps,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            seed=self.seed,
            domain=domain or "general",
        )
        return key

    @classmethod
    def quick(cls, seed: int = 2021) -> "PretrainPlan":
        """A fast plan for tests: tiny corpora, few steps."""
        return cls(
            model=MiniBertConfig(vocab_size=400, dim=32, num_layers=2, num_heads=4, ffn_dim=64),
            general_sentences=400,
            general_steps=60,
            domain_sentences=200,
            domain_steps=30,
            seed=seed,
        )


def _train_tokenizer(plan: PretrainPlan) -> WordPieceTokenizer:
    from repro.bert.corpus import domain_corpus, general_corpus

    corpus = general_corpus(plan.general_sentences, seed=plan.seed)
    for domain in ("restaurants", "electronics", "hotels"):
        corpus = corpus + domain_corpus(domain, max(plan.domain_sentences // 3, 50), seed=plan.seed)
    return WordPieceTokenizer.train(
        corpus,
        vocab_size=plan.model.vocab_size,
        max_pieces_per_word=plan.model.max_pieces_per_word,
    )


def _build(plan: PretrainPlan, domain: Optional[str]) -> Dict[str, np.ndarray]:
    # Imported here: only a cache miss trains, and a served process never does.
    from repro.bert.corpus import domain_corpus, general_corpus
    from repro.bert.pretrain import MlmConfig, pretrain_mlm

    seeds = SeedSequence(plan.seed).child("bert-pretrain")
    tokenizer = _train_tokenizer(plan)
    # The trained vocab may be smaller than the configured ceiling; size the
    # embedding matrix to the actual vocabulary.
    config_dict = plan.model.as_dict()
    config_dict["vocab_size"] = tokenizer.vocab_size
    model = MiniBert(MiniBertConfig(**config_dict), seeds.rng("init"))
    general = general_corpus(plan.general_sentences, seed=plan.seed)
    pretrain_mlm(
        model,
        tokenizer,
        general,
        MlmConfig(
            steps=plan.general_steps,
            batch_size=plan.batch_size,
            learning_rate=plan.learning_rate,
            seed=plan.seed,
        ),
    )
    if domain is not None:
        in_domain = domain_corpus(domain, plan.domain_sentences, seed=plan.seed)
        pretrain_mlm(
            model,
            tokenizer,
            in_domain,
            MlmConfig(
                steps=plan.domain_steps,
                batch_size=plan.batch_size,
                learning_rate=plan.learning_rate * 0.5,
                seed=plan.seed + 1,
            ),
        )
    arrays = state_to_arrays(model.state_dict())
    for key, value in tokenizer.to_arrays().items():
        arrays[f"tokenizer::{key}"] = np.asarray(value)
    return arrays


def pretrained_encoder(
    domain: Optional[str],
    plan: Optional[PretrainPlan] = None,
    cache: Optional[ArtifactCache] = None,
) -> BertWordEncoder:
    """A pre-trained (and optionally domain-post-trained) encoder.

    Results are cached: the first call for a given (plan, domain) trains the
    model; later calls load weights from disk.
    """
    plan = plan or PretrainPlan()
    cache = cache or default_cache()
    arrays = cache.get_or_build("minibert", plan.cache_key(domain), lambda: _build(plan, domain))
    tokenizer = WordPieceTokenizer.from_arrays(
        {
            "pieces": arrays["tokenizer::pieces"],
            "max_pieces": arrays["tokenizer::max_pieces"],
        }
    )
    # The trained vocab can be smaller than the configured ceiling.
    config_dict = plan.model.as_dict()
    config_dict["vocab_size"] = tokenizer.vocab_size
    model = MiniBert(MiniBertConfig(**config_dict), np.random.default_rng(0))
    state = arrays_to_state(
        {k: v for k, v in arrays.items() if not k.startswith("tokenizer::")}
    )
    model.load_state_dict(state)
    model.eval()
    return BertWordEncoder(tokenizer, model)
