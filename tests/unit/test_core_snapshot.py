"""Snapshot persistence: round-trips are exact, corruption is typed.

Two halves.  Round-trip: ``save_snapshot`` → ``load_snapshot`` must hand
back an index whose rankings are bitwise equal to the source, for both the
single index and the sharded wrapper.  Integrity: every way a snapshot can
rot on disk — edited manifest, truncated shard file, hash-blessed garbage,
foreign format version, missing directory — must surface as a specific
:class:`SnapshotError` subclass so the serving CLI can fall back to a cold
build instead of crashing (or worse, serving from torn arrays).
"""

import json

import numpy as np
import pytest

from repro.core.index import SubjectiveTagIndex
from repro.core.shards import ShardedTagIndex
from repro.core.snapshot import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    SnapshotError,
    SnapshotIntegrityError,
    SnapshotNotFound,
    SnapshotVersionError,
    _manifest_hash,
    load_snapshot,
    save_snapshot,
)
from repro.core.tags import SubjectiveTag
from repro.text import ConceptualSimilarity, restaurant_lexicon


def _similarity():
    return ConceptualSimilarity(restaurant_lexicon())


def _corpus(num_entities=12, num_index_tags=24, seed=3):
    rng = np.random.default_rng(seed)
    lexicon = restaurant_lexicon()
    aspects = sorted(lexicon.aspect_surface_index())
    opinions = sorted(op.text for op in lexicon.opinions)
    pool = [SubjectiveTag(a, o) for a in aspects for o in opinions]
    tags = [pool[i] for i in rng.choice(len(pool), size=num_index_tags, replace=False)]
    corpus = []
    for e in range(num_entities):
        reviews = [
            [pool[i] for i in rng.choice(len(pool), size=int(rng.integers(1, 5)))]
            for _ in range(int(rng.integers(1, 4)))
        ]
        corpus.append((f"entity-{e:03d}", reviews))
    return corpus, tags


def _build_sharded(num_shards=4, **kwargs):
    corpus, tags = _corpus()
    index = ShardedTagIndex(_similarity(), num_shards=num_shards, **kwargs)
    for entity_id, reviews in corpus:
        index.register_entity(entity_id, reviews)
    index.build(tags)
    return index, tags


def _rewrite_manifest(directory, mutate):
    """Apply ``mutate`` to the manifest dict and re-bless its hash."""
    path = directory / MANIFEST_NAME
    manifest = json.loads(path.read_text())
    mutate(manifest)
    manifest["snapshot_sha256"] = _manifest_hash(manifest)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))


class TestRoundTrip:
    def test_sharded_round_trip_is_bitwise_identical(self, tmp_path):
        index, tags = _build_sharded()
        queries = tags[:8] + [SubjectiveTag(tags[0].aspect, "really wonderful")]
        manifest = save_snapshot(index, tmp_path)
        assert manifest["kind"] == "sharded"
        loaded = load_snapshot(tmp_path, _similarity())
        assert isinstance(loaded, ShardedTagIndex)
        assert loaded.tags == index.tags
        assert loaded.entity_order == index.entity_order
        assert loaded.lookup_similar_batch(
            queries, theta_filter=0.6
        ) == index.lookup_similar_batch(queries, theta_filter=0.6)

    def test_single_index_round_trip(self, tmp_path):
        corpus, tags = _corpus()
        index = SubjectiveTagIndex(_similarity())
        for entity_id, reviews in corpus:
            index.register_entity(entity_id, reviews)
        index.build(tags)
        manifest = save_snapshot(index, tmp_path)
        assert manifest["kind"] == "single"
        loaded = load_snapshot(tmp_path, _similarity())
        assert isinstance(loaded, SubjectiveTagIndex)
        assert loaded.lookup_similar_batch(
            tags[:8], theta_filter=0.6
        ) == index.lookup_similar_batch(tags[:8], theta_filter=0.6)

    def test_loaded_index_adopts_new_tags_like_the_source(self, tmp_path):
        """The stored review tags let later indexing rounds run after a load."""
        corpus, tags = _corpus()
        index = SubjectiveTagIndex(_similarity())
        for entity_id, reviews in corpus:
            index.register_entity(entity_id, reviews)
        index.build(tags[::2])
        save_snapshot(index, tmp_path)
        loaded = load_snapshot(tmp_path, _similarity())
        for tag in tags[1::2]:
            index.add_tag(tag)
            loaded.add_tag(tag)
            assert loaded.lookup(tag) == index.lookup(tag)
        assert loaded.tags == index.tags
        assert any(loaded.lookup(tag) for tag in tags[1::2])

    def test_dynamic_theta_config_survives_the_round_trip(self, tmp_path):
        index, tags = _build_sharded(theta_mode="dynamic")
        save_snapshot(index, tmp_path)
        loaded = load_snapshot(tmp_path, _similarity())
        assert loaded.theta_mode == "dynamic"
        assert loaded.lookup_similar_batch(
            tags[:6], theta_filter=0.6
        ) == index.lookup_similar_batch(tags[:6], theta_filter=0.6)

    def test_manifest_hashes_bless_every_file(self, tmp_path):
        index, _ = _build_sharded(num_shards=2)
        manifest = save_snapshot(index, tmp_path)
        assert manifest["format_version"] == FORMAT_VERSION
        assert set(manifest["files"]) == {"shard-000.npz", "shard-001.npz"}
        for name, meta in manifest["files"].items():
            assert meta["bytes"] == (tmp_path / name).stat().st_size
        assert manifest["snapshot_sha256"] == _manifest_hash(manifest)


class TestIntegrity:
    def test_missing_directory_is_not_found(self, tmp_path):
        with pytest.raises(SnapshotNotFound):
            load_snapshot(tmp_path / "nowhere", _similarity())

    def test_version_skew_is_typed(self, tmp_path):
        index, _ = _build_sharded()
        save_snapshot(index, tmp_path)
        _rewrite_manifest(tmp_path, lambda m: m.update(format_version=FORMAT_VERSION + 1))
        with pytest.raises(SnapshotVersionError):
            load_snapshot(tmp_path, _similarity())

    def test_edited_manifest_fails_the_manifest_hash(self, tmp_path):
        index, _ = _build_sharded()
        save_snapshot(index, tmp_path)
        path = tmp_path / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["shared_review_max"] = 999  # edited but not re-blessed
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        with pytest.raises(SnapshotIntegrityError, match="manifest hash"):
            load_snapshot(tmp_path, _similarity())

    def test_truncated_shard_fails_the_content_hash(self, tmp_path):
        index, _ = _build_sharded()
        save_snapshot(index, tmp_path)
        shard = tmp_path / "shard-000.npz"
        shard.write_bytes(shard.read_bytes()[:100])
        with pytest.raises(SnapshotIntegrityError, match="content hash"):
            load_snapshot(tmp_path, _similarity())

    def test_hash_blessed_truncation_is_still_unreadable(self, tmp_path):
        """Even if an attacker re-blesses the hashes, torn bytes won't parse."""
        import hashlib

        index, _ = _build_sharded()
        save_snapshot(index, tmp_path)
        shard = tmp_path / "shard-000.npz"
        torn = shard.read_bytes()[:100]
        shard.write_bytes(torn)
        _rewrite_manifest(
            tmp_path,
            lambda m: m["files"]["shard-000.npz"].update(
                sha256=hashlib.sha256(torn).hexdigest(), bytes=len(torn)
            ),
        )
        with pytest.raises(SnapshotIntegrityError, match="unreadable"):
            load_snapshot(tmp_path, _similarity())

    def test_missing_shard_file_is_typed(self, tmp_path):
        index, _ = _build_sharded()
        save_snapshot(index, tmp_path)
        (tmp_path / "shard-001.npz").unlink()
        with pytest.raises(SnapshotIntegrityError, match="missing"):
            load_snapshot(tmp_path, _similarity())

    def test_corrupt_manifest_json_is_typed(self, tmp_path):
        index, _ = _build_sharded()
        save_snapshot(index, tmp_path)
        (tmp_path / MANIFEST_NAME).write_text("{torn json")
        with pytest.raises(SnapshotIntegrityError):
            load_snapshot(tmp_path, _similarity())

    def test_every_failure_is_a_snapshot_error(self):
        for exc_type in (SnapshotNotFound, SnapshotIntegrityError, SnapshotVersionError):
            assert issubclass(exc_type, SnapshotError)
