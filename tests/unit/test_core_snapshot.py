"""Snapshot persistence: round-trips are exact, corruption is typed.

Two halves.  Round-trip: ``save_snapshot`` → ``load_snapshot`` must hand
back an index whose arrays and rankings are bitwise equal to the source.
Integrity: every way a snapshot can rot on disk — edited manifest,
truncated file, hash-blessed garbage, a re-blessed manifest with a
malformed field, foreign format version, missing directory — must surface
as a specific :class:`SnapshotError` subclass so the serving CLI can fall
back to a cold build instead of crashing (or worse, serving from torn
arrays).
"""

import hashlib
import io
import json

import numpy as np
import pytest

from repro.core.index import SubjectiveTagIndex
from repro.core.snapshot import (
    FORMAT_VERSION,
    INDEX_NAME,
    MANIFEST_NAME,
    SnapshotError,
    SnapshotIntegrityError,
    SnapshotNotFound,
    SnapshotVersionError,
    _REQUIRED_ARRAYS,
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


def _build(tags_slice=slice(None), **kwargs):
    corpus, tags = _corpus()
    index = SubjectiveTagIndex(_similarity(), **kwargs)
    for entity_id, reviews in corpus:
        index.register_entity(entity_id, reviews)
    index.build(tags[tags_slice])
    return index, tags


def _rewrite_manifest(directory, mutate):
    """Apply ``mutate`` to the manifest dict and re-bless its hash."""
    path = directory / MANIFEST_NAME
    manifest = json.loads(path.read_text())
    mutate(manifest)
    manifest["snapshot_sha256"] = _manifest_hash(manifest)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _rewrite_as_v2(directory):
    """Turn a saved snapshot into the per-shard v2 layout, re-blessed."""
    (directory / INDEX_NAME).rename(directory / "shard-000.npz")
    _rewrite_manifest(
        directory,
        lambda m: m.update(
            format_version=2, kind="single", num_shards=1, shared_review_max=None,
            files={"shard-000.npz": m["files"][INDEX_NAME]},
        ),
    )


def _rewrite_as_v3(directory):
    """Turn a saved snapshot into the v3 layout (a ``sims`` array), re-blessed."""
    path = directory / INDEX_NAME
    with np.load(path) as npz:
        arrays = {key: npz[key] for key in npz.files}
    arrays["sims"] = np.zeros((len(arrays["index_aspects"]), len(arrays["vocab_aspects"])))
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    data = buffer.getvalue()
    path.write_bytes(data)
    _rewrite_manifest(
        directory,
        lambda m: m.update(
            format_version=3,
            files={INDEX_NAME: {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}},
        ),
    )


def _set(*path_and_value):
    """A manifest mutation that sets the field at ``path`` to ``value``."""
    *path, key, value = path_and_value

    def mutate(manifest):
        target = manifest
        for step in path:
            target = target[step]
        target[key] = value

    return mutate


#: Every manifest field the loader reads, each made malformed in a way the
#: manifest hash cannot see once re-blessed.
MALFORMED_FIELDS = {
    "config-not-an-object": _set("config", "static"),
    "theta_index-a-string": _set("config", "theta_index", "abc"),
    "theta_index-out-of-range": _set("config", "theta_index", 1.5),
    "theta_index-missing": lambda m: m["config"].pop("theta_index"),
    "normalize_degrees-a-string": _set("config", "normalize_degrees", "yes"),
    "review_count_mode-a-number": _set("config", "review_count_mode", 3),
    "theta_mode-unknown": _set("config", "theta_mode", "sometimes"),
    "dynamic_margin-null": _set("config", "dynamic_margin", None),
    "index_tags-a-string": _set("index_tags", "delicious food"),
    "index_tag-one-word": _set("index_tags", [["food"]]),
    "index_tag-empty-aspect": _set("index_tags", [["", "delicious"]]),
    "index_tags-dropped-one": lambda m: m["index_tags"].pop(),
    "files-a-list": _set("files", [INDEX_NAME]),
    "files-without-the-index": _set("files", {}),
    "file-meta-a-string": _set("files", INDEX_NAME, "sha"),
    "file-sha256-a-number": _set("files", INDEX_NAME, "sha256", 5),
}


class TestRoundTrip:
    def test_single_index_round_trip(self, tmp_path):
        index, tags = _build()
        queries = tags[:8] + [SubjectiveTag(tags[0].aspect, "really wonderful")]
        manifest = save_snapshot(index, tmp_path)
        loaded, sha = load_snapshot(tmp_path, _similarity())
        assert isinstance(loaded, SubjectiveTagIndex)
        assert sha == manifest["snapshot_sha256"]
        assert loaded.tags == index.tags
        source_arrays, loaded_arrays = index.snapshot_arrays(), loaded.snapshot_arrays()
        assert sorted(loaded_arrays) == sorted(source_arrays)
        for name, array in source_arrays.items():
            assert loaded_arrays[name].dtype == array.dtype, name
            assert np.array_equal(loaded_arrays[name], array), name
        for tag in tags:
            assert loaded.lookup(tag) == index.lookup(tag)
        assert loaded.lookup_similar_batch(
            queries, theta_filter=0.6
        ) == index.lookup_similar_batch(queries, theta_filter=0.6)

    def test_loaded_index_adopts_new_tags_like_the_source(self, tmp_path):
        """The stored review tags let later indexing rounds run after a load."""
        index, tags = _build(slice(None, None, 2))
        save_snapshot(index, tmp_path)
        loaded, _ = load_snapshot(tmp_path, _similarity())
        for tag in tags[1::2]:
            index.add_tag(tag)
            loaded.add_tag(tag)
            assert loaded.lookup(tag) == index.lookup(tag)
        assert loaded.tags == index.tags
        assert any(loaded.lookup(tag) for tag in tags[1::2])

    def test_dynamic_theta_config_survives_the_round_trip(self, tmp_path):
        index, tags = _build(theta_mode="dynamic")
        save_snapshot(index, tmp_path)
        loaded, _ = load_snapshot(tmp_path, _similarity())
        assert loaded.theta_mode == "dynamic"
        assert loaded.lookup_similar_batch(
            tags[:6], theta_filter=0.6
        ) == index.lookup_similar_batch(tags[:6], theta_filter=0.6)

    def test_manifest_hashes_bless_every_file(self, tmp_path):
        index, _ = _build()
        manifest = save_snapshot(index, tmp_path)
        assert manifest["format_version"] == FORMAT_VERSION == 4
        assert set(manifest) == {
            "format_version", "config", "index_tags", "files", "snapshot_sha256"
        }
        assert set(manifest["files"]) == {INDEX_NAME}
        for name, meta in manifest["files"].items():
            assert meta["bytes"] == (tmp_path / name).stat().st_size
        assert manifest["snapshot_sha256"] == _manifest_hash(manifest)
        assert sorted(path.name for path in tmp_path.iterdir()) == [INDEX_NAME, MANIFEST_NAME]


class TestIntegrity:
    def test_missing_directory_is_not_found(self, tmp_path):
        with pytest.raises(SnapshotNotFound):
            load_snapshot(tmp_path / "nowhere", _similarity())

    def test_version_skew_is_typed(self, tmp_path):
        index, _ = _build()
        save_snapshot(index, tmp_path)
        _rewrite_manifest(tmp_path, lambda m: m.update(format_version=FORMAT_VERSION + 1))
        with pytest.raises(SnapshotVersionError):
            load_snapshot(tmp_path, _similarity())

    def test_index_file_holds_only_what_algorithm_1_reads(self, tmp_path):
        index, _ = _build()
        save_snapshot(index, tmp_path)
        with np.load(tmp_path / INDEX_NAME) as npz:
            assert sorted(npz.files) == sorted(_REQUIRED_ARRAYS)
        assert "sims" not in _REQUIRED_ARRAYS

    def test_save_removes_the_earlier_layouts_files_and_nothing_else(self, tmp_path):
        """A converted v2 directory lists exactly the v4 files; foreign files stay."""
        index, _ = _build()
        save_snapshot(index, tmp_path)
        _rewrite_as_v2(tmp_path)
        save_snapshot(index, tmp_path)
        assert sorted(path.name for path in tmp_path.iterdir()) == [INDEX_NAME, MANIFEST_NAME]
        (tmp_path / "notes.txt").write_text("operator notes")
        (tmp_path / "shard-000.npz.bak").write_text("kept")
        save_snapshot(index, tmp_path)
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            INDEX_NAME, MANIFEST_NAME, "notes.txt", "shard-000.npz.bak"
        ]

    def test_v3_layout_is_version_skew(self, tmp_path):
        """A v3 directory (which also stored the similarity matrix) is refused."""
        index, _ = _build()
        save_snapshot(index, tmp_path)
        _rewrite_as_v3(tmp_path)
        with pytest.raises(SnapshotVersionError, match="format_version 3"):
            load_snapshot(tmp_path, _similarity())

    def test_v2_sharded_layout_is_version_skew(self, tmp_path):
        """A directory written by the per-shard format is refused as a whole."""
        index, _ = _build()
        save_snapshot(index, tmp_path)
        _rewrite_as_v2(tmp_path)
        with pytest.raises(SnapshotVersionError, match="format_version 2"):
            load_snapshot(tmp_path, _similarity())

    def test_edited_manifest_fails_the_manifest_hash(self, tmp_path):
        index, _ = _build()
        save_snapshot(index, tmp_path)
        path = tmp_path / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["config"]["theta_index"] = 0.5  # edited but not re-blessed
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        with pytest.raises(SnapshotIntegrityError, match="manifest hash"):
            load_snapshot(tmp_path, _similarity())

    @pytest.mark.parametrize("mutate", MALFORMED_FIELDS.values(), ids=MALFORMED_FIELDS.keys())
    def test_reblessed_malformed_field_is_an_integrity_error(self, tmp_path, mutate):
        index, _ = _build()
        save_snapshot(index, tmp_path)
        _rewrite_manifest(tmp_path, mutate)
        with pytest.raises(SnapshotIntegrityError):
            load_snapshot(tmp_path, _similarity())

    def test_manifest_that_is_not_an_object_is_typed(self, tmp_path):
        index, _ = _build()
        save_snapshot(index, tmp_path)
        (tmp_path / MANIFEST_NAME).write_text("[3]")
        with pytest.raises(SnapshotIntegrityError, match="not a JSON object"):
            load_snapshot(tmp_path, _similarity())

    def test_truncated_file_fails_the_content_hash(self, tmp_path):
        index, _ = _build()
        save_snapshot(index, tmp_path)
        stored = tmp_path / INDEX_NAME
        stored.write_bytes(stored.read_bytes()[:100])
        with pytest.raises(SnapshotIntegrityError, match="content hash"):
            load_snapshot(tmp_path, _similarity())

    def test_hash_blessed_truncation_is_still_unreadable(self, tmp_path):
        """Even if an attacker re-blesses the hashes, torn bytes won't parse."""
        index, _ = _build()
        save_snapshot(index, tmp_path)
        stored = tmp_path / INDEX_NAME
        torn = stored.read_bytes()[:100]
        stored.write_bytes(torn)
        _rewrite_manifest(
            tmp_path,
            lambda m: m["files"][INDEX_NAME].update(
                sha256=hashlib.sha256(torn).hexdigest(), bytes=len(torn)
            ),
        )
        with pytest.raises(SnapshotIntegrityError, match="unreadable"):
            load_snapshot(tmp_path, _similarity())

    def test_missing_index_file_is_typed(self, tmp_path):
        index, _ = _build()
        save_snapshot(index, tmp_path)
        (tmp_path / INDEX_NAME).unlink()
        with pytest.raises(SnapshotIntegrityError, match="missing"):
            load_snapshot(tmp_path, _similarity())

    def test_corrupt_manifest_json_is_typed(self, tmp_path):
        index, _ = _build()
        save_snapshot(index, tmp_path)
        (tmp_path / MANIFEST_NAME).write_text("{torn json")
        with pytest.raises(SnapshotIntegrityError):
            load_snapshot(tmp_path, _similarity())

    def test_every_failure_is_a_snapshot_error(self):
        for exc_type in (SnapshotNotFound, SnapshotIntegrityError, SnapshotVersionError):
            assert issubclass(exc_type, SnapshotError)
