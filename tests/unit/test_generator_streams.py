"""Pins of the synthetic generators' random streams.

``build_world`` and ``build_tagging_dataset`` are deterministic, and every
workload, experiment and the benchmark's trained tagger are built from their
output.  These digests were computed from the generators as they stood
before their weighted draws stopped going through ``Generator.choice``; a
change that moves, adds or drops a draw fails here instead of silently
changing every downstream number.  If a change is *meant* to alter the
streams, recompute the digests and say so in the change's notes.
"""

import dataclasses
import hashlib
import json

from repro.data import WorldConfig, build_tagging_dataset, build_world

WORLD_SHA256 = "ebaf3ff3c931362a702bbda6174a9b5490a8190245a63a33aad41c35d43c56e5"
S1_TRAIN_SHA256 = "115fdc1feb140a4bad4de3f094e7c32d14139bacc023131b0b8bfe84c214ee02"


def _digest(payload) -> str:
    # ``json`` writes floats with ``repr``, which round-trips exactly, so equal
    # digests mean equal values, not merely equal printouts.
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_serve_world_stream_is_pinned():
    # ``repro serve``'s defaults: 60 entities, 12 reviews per entity, seed 2021.
    world = build_world(WorldConfig.small(seed=2021, num_entities=60, mean_reviews=12.0))
    payload = {
        "entities": [dataclasses.asdict(e) for e in world.entities],
        "reviews": [dataclasses.asdict(r) for r in world.all_reviews()],
    }
    assert _digest(payload) == WORLD_SHA256


def test_tagging_dataset_stream_is_pinned():
    dataset = build_tagging_dataset("S1", scale=0.06, seed=6)
    assert _digest([dataclasses.asdict(s) for s in dataset.train]) == S1_TRAIN_SHA256

