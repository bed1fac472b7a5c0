"""Index snapshot persistence: per-shard ``.npz`` + hashed JSON manifest.

A snapshot is a directory holding one ``shard-NNN.npz`` per entity shard
(the CSR occurrence arrays, vocabulary, similarity and degree-of-truth
matrices from :meth:`SubjectiveTagIndex.snapshot_arrays`) and a
``manifest.json`` recording the index configuration, the indexed tag list,
and a sha256 per file — the same content-hash keying the PR-3
``ExtractionCache`` uses for review extractions, extended to index records.
``repro index build --out`` writes one, ``repro search --index`` reads it,
and ``repro serve --snapshot-dir`` warm-starts from one in seconds instead
of re-extracting the corpus.

Failure policy is *fail-safe, never fail-open*: every writer goes through
temp-file + ``os.replace`` with the manifest written last, so a torn save
leaves either the previous consistent snapshot or a hash mismatch; loads
verify content hashes before touching ``np.load`` and raise a typed
:class:`SnapshotError` (callers fall back to a cold build) rather than ever
serving from a corrupt or version-skewed snapshot.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from pathlib import Path
from typing import Dict, List, Union

import numpy as np

from repro.core.index import SubjectiveTagIndex
from repro.core.shards import ShardedTagIndex, shard_of
from repro.core.tags import SubjectiveTag
from repro.text.similarity import ConceptualSimilarity

__all__ = [
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "SnapshotError",
    "SnapshotNotFound",
    "SnapshotIntegrityError",
    "SnapshotVersionError",
    "save_snapshot",
    "load_snapshot",
]

#: the only on-disk index format; loads refuse any other version.
FORMAT_VERSION = 2

MANIFEST_NAME = "manifest.json"

_REQUIRED_ARRAYS = (
    "vocab_aspects",
    "vocab_opinions",
    "index_aspects",
    "index_opinions",
    "entity_order",
    "entity_review_counts",
    "occ_ids",
    "review_indptr",
    "review_entity",
    "sims",
    "degrees",
)


class SnapshotError(RuntimeError):
    """Base for every refuse-to-load condition (callers cold-build instead)."""


class SnapshotNotFound(SnapshotError):
    """No manifest in the snapshot directory."""


class SnapshotIntegrityError(SnapshotError):
    """Content hash mismatch, truncated/corrupt file, or torn save."""


class SnapshotVersionError(SnapshotError):
    """The snapshot was written by an incompatible format version."""


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_atomic(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
    os.replace(tmp, path)


def _manifest_hash(manifest: Dict[str, object]) -> str:
    payload = {key: manifest[key] for key in sorted(manifest) if key != "snapshot_sha256"}
    return _sha256(json.dumps(payload, sort_keys=True).encode("utf-8"))


def save_snapshot(
    index: Union[SubjectiveTagIndex, ShardedTagIndex],
    directory: Union[str, Path],
) -> Dict[str, object]:
    """Persist ``index`` under ``directory`` and return the manifest.

    Shard files land first (each via temp + ``os.replace``), the manifest —
    whose hashes bless them — last, so a reader never sees new files blessed
    by an old manifest as valid.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    sharded = isinstance(index, ShardedTagIndex)
    shards = index.shards if sharded else [index]
    files: Dict[str, Dict[str, object]] = {}
    for shard_id, shard in enumerate(shards):
        arrays = shard.snapshot_arrays()
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        data = buffer.getvalue()
        name = f"shard-{shard_id:03d}.npz"
        _write_atomic(directory / name, data)
        files[name] = {"sha256": _sha256(data), "bytes": len(data)}
    manifest: Dict[str, object] = {
        "format_version": FORMAT_VERSION,
        "kind": "sharded" if sharded else "single",
        "num_shards": len(shards),
        "config": {
            "theta_index": index.theta_index,
            "normalize_degrees": shards[0].normalize_degrees,
            "review_count_mode": index.review_count_mode,
            "theta_mode": index.theta_mode,
            "dynamic_margin": shards[0].dynamic_margin,
        },
        "shared_review_max": shards[0].shared_review_max if sharded else None,
        "index_tags": [[tag.aspect, tag.opinion] for tag in index.tags],
        "files": files,
    }
    manifest["snapshot_sha256"] = _manifest_hash(manifest)
    _write_atomic(
        directory / MANIFEST_NAME,
        json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8"),
    )
    return manifest


def _load_shard_arrays(directory: Path, name: str, expected_sha: str) -> Dict[str, np.ndarray]:
    path = directory / name
    if not path.exists():
        raise SnapshotIntegrityError(f"snapshot file missing: {name}")
    data = path.read_bytes()
    if _sha256(data) != expected_sha:
        raise SnapshotIntegrityError(f"content hash mismatch for {name}")
    try:
        with np.load(io.BytesIO(data), allow_pickle=False) as npz:
            arrays = {key: npz[key] for key in npz.files}
    except Exception as exc:
        raise SnapshotIntegrityError(f"unreadable snapshot file {name}: {exc}") from exc
    missing = [key for key in _REQUIRED_ARRAYS if key not in arrays]
    if missing:
        raise SnapshotIntegrityError(f"snapshot file {name} lacks arrays: {missing}")
    return arrays


def load_snapshot(
    directory: Union[str, Path],
    similarity: ConceptualSimilarity,
    lookup_workers: int = 0,
) -> Union[SubjectiveTagIndex, ShardedTagIndex]:
    """Rebuild the index persisted under ``directory``.

    Raises a :class:`SnapshotError` subclass on any inconsistency; callers
    catch it and fall back to a cold build.
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise SnapshotNotFound(f"no {MANIFEST_NAME} under {directory}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise SnapshotIntegrityError(f"manifest is not valid JSON: {exc}") from exc
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise SnapshotVersionError(
            f"snapshot format_version {version!r} != supported {FORMAT_VERSION}"
        )
    if _manifest_hash(manifest) != manifest.get("snapshot_sha256"):
        raise SnapshotIntegrityError("manifest hash mismatch (torn or edited snapshot)")
    config = manifest.get("config") or {}
    files = manifest.get("files") or {}
    num_shards = int(manifest.get("num_shards", 0))
    if num_shards < 1 or len(files) != num_shards:
        raise SnapshotIntegrityError(
            f"manifest names {len(files)} files for {num_shards} shards"
        )
    expected_tags = [
        SubjectiveTag(aspect=str(aspect), opinion=str(opinion))
        for aspect, opinion in manifest.get("index_tags", [])
    ]
    shared_review_max = manifest.get("shared_review_max")
    kwargs = {
        "theta_index": float(config.get("theta_index", 0.70)),
        "normalize_degrees": bool(config.get("normalize_degrees", True)),
        "review_count_mode": str(config.get("review_count_mode", "matched")),
        "theta_mode": str(config.get("theta_mode", "static")),
        "dynamic_margin": float(config.get("dynamic_margin", 0.08)),
    }
    shards: List[SubjectiveTagIndex] = []
    for name in sorted(files):
        meta = files[name]
        arrays = _load_shard_arrays(directory, name, str(meta.get("sha256")))
        try:
            shard = SubjectiveTagIndex.from_snapshot_arrays(
                similarity,
                arrays,
                shared_review_max=shared_review_max,
                **kwargs,
            )
        except ValueError as exc:
            raise SnapshotIntegrityError(f"inconsistent arrays in {name}: {exc}") from exc
        if shard.tags != expected_tags:
            raise SnapshotIntegrityError(
                f"{name} indexes a different tag list than the manifest"
            )
        shards.append(shard)
    if manifest.get("kind") == "single":
        if len(shards) != 1:
            raise SnapshotIntegrityError("single-index snapshot with multiple shards")
        single = shards[0]
        single.shared_review_max = None
        return single
    for shard_id, shard in enumerate(shards):
        for entity_id in shard.entity_order:
            if shard_of(entity_id, num_shards) != shard_id:
                raise SnapshotIntegrityError(
                    f"entity {entity_id!r} stored in shard {shard_id} but routes "
                    f"to shard {shard_of(entity_id, num_shards)}"
                )
    wrapper = ShardedTagIndex(
        similarity,
        num_shards=num_shards,
        lookup_workers=lookup_workers,
        **kwargs,
    )
    wrapper.shards = shards
    wrapper._tag_order = {tag: position for position, tag in enumerate(expected_tags)}
    wrapper._entity_review_counts = {
        entity_id: count
        for shard in shards
        for entity_id, count in shard._entity_review_counts.items()
    }
    wrapper._max_reviews = max(wrapper._entity_review_counts.values(), default=0)
    return wrapper
