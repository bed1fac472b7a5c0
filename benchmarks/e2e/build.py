"""The served system, built the way ``repro serve`` builds it, plus its model.

``repro serve`` hard-wires the oracle extractor, so utterance ``/search``
and ``/session/<id>/say`` would answer 501.  The benchmark serves a neural
:class:`~repro.core.TagExtractor` instead, trained once per source tree from
public parts only — the recipe of the integration fixtures (quick
pre-trained encoder, BERT-BiLSTM-CRF tagger, 8 epochs, tree pairer) — and
saved with :func:`repro.nn.save_module` under ``.bench_build/e2e/``.  The
server process and the client's in-process oracle load the same file.

Every other setting comes from ``repro.cli.build_parser()``'s ``serve``
defaults, so the benchmark follows the shipped configuration.
"""

from __future__ import annotations

import fcntl
import hashlib
from pathlib import Path

__all__ = [
    "build_saccs",
    "dimension_tags",
    "ensure_model",
    "load_extractor",
    "make_world",
    "serve_defaults",
]

#: tagger recipe (integration fixtures): 2 epochs extract no tags from the
#: paper's queries, 8 do.
ENCODER_SEED = 31
TAGGER_EPOCHS = 8
TAGGING_DATASET = ("S1", 0.06, 6)  # (dataset, scale, seed)

MODEL_FILE = "tagger.npz"


def _fingerprint(root: Path) -> str:
    """Hash of the program source and this recipe: a new tree retrains."""
    digest = hashlib.sha256(Path(__file__).read_bytes())
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _encoder(model_dir: Path):
    from repro.bert import PretrainPlan, pretrained_encoder
    from repro.utils.caching import ArtifactCache

    return pretrained_encoder(
        "restaurants",
        plan=PretrainPlan.quick(seed=ENCODER_SEED),
        cache=ArtifactCache(model_dir / "encoder"),
    )


def _tagger(model_dir: Path):
    import numpy as np

    from repro.core import SequenceTagger

    return SequenceTagger(_encoder(model_dir), np.random.default_rng(0))


def ensure_model(root: Path) -> Path:
    """The model directory for this source tree, training it on first use."""
    model_dir = root / ".bench_build" / "e2e" / f"model-{_fingerprint(root)}"
    if (model_dir / MODEL_FILE).exists():
        return model_dir
    model_dir.mkdir(parents=True, exist_ok=True)
    with open(model_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (model_dir / MODEL_FILE).exists():
            from repro.core import TaggerTrainer, TaggerTrainingConfig
            from repro.data import build_tagging_dataset
            from repro.nn import save_module

            name, scale, seed = TAGGING_DATASET
            tagger = _tagger(model_dir)
            TaggerTrainer(tagger, TaggerTrainingConfig(epochs=TAGGER_EPOCHS)).fit(
                build_tagging_dataset(name, scale=scale, seed=seed).train
            )
            save_module(tagger, model_dir / MODEL_FILE)
    return model_dir


def load_extractor(model_dir: Path):
    """The trained :class:`TagExtractor`, loaded with ``load_module``."""
    from repro.core import HeuristicPairer, TagExtractor, TreePairingHeuristic
    from repro.nn import load_module
    from repro.text import ChunkParser, PosLexicon, restaurant_lexicon

    tagger = _tagger(model_dir)
    load_module(tagger, model_dir / MODEL_FILE)
    tagger.eval()
    parser = ChunkParser(PosLexicon(restaurant_lexicon()))
    return TagExtractor(
        tagger, HeuristicPairer([TreePairingHeuristic(parser, direction="opinions")])
    )


def serve_defaults():
    """``repro serve``'s parsed defaults (world size, serving knobs, SLO)."""
    from repro.cli import build_parser

    return build_parser().parse_args(["serve"])


def make_world(args):
    from repro.data import WorldConfig, build_world

    return build_world(
        WorldConfig.small(seed=args.seed, num_entities=args.entities, mean_reviews=args.reviews)
    )


def dimension_tags(world):
    from repro.core import SubjectiveTag

    return [SubjectiveTag.from_text(d.name) for d in world.dimensions]


def build_saccs(args, world, extractor):
    """The un-ingested facade, configured as ``repro serve`` configures it."""
    from repro.core import Saccs, SaccsConfig
    from repro.text import ConceptualSimilarity, restaurant_lexicon

    return Saccs(
        world.entities,
        world.reviews,
        extractor,
        ConceptualSimilarity(restaurant_lexicon()),
        SaccsConfig(
            encoder_precision=args.encoder_precision,
            index_shards=args.shards,
            index_lookup_workers=args.lookup_workers,
        ),
    )
