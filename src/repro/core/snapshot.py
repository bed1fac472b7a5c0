"""Index snapshot persistence: one ``.npz`` plus a hashed JSON manifest.

A snapshot is a directory holding ``index.npz`` (the CSR occurrence arrays,
vocabulary and degree-of-truth matrix from
:meth:`SubjectiveTagIndex.snapshot_arrays`) and a ``manifest.json``
recording the index configuration, the indexed tag list, and the file's
sha256 — the same content-hash keying the extraction engine's memo uses
for review extractions, extended to index records.  ``repro index build --out``
writes one, ``repro search --index`` reads it, and ``repro serve
--snapshot-dir`` warm-starts from one in seconds instead of re-extracting
the corpus.

Failure policy is *fail-safe, never fail-open*: every writer goes through
temp-file + ``os.replace`` with the manifest written last, so a torn save
leaves either the previous consistent snapshot or a hash mismatch; loads
verify content hashes before touching ``np.load``, check the type of every
manifest field they read, and raise a typed :class:`SnapshotError` (callers
fall back to a cold build) rather than ever serving from a corrupt or
version-skewed snapshot.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from pathlib import Path
from typing import Any, Dict, Tuple, Union

import numpy as np

from repro.core.index import SubjectiveTagIndex
from repro.core.tags import SubjectiveTag
from repro.text.similarity import ConceptualSimilarity

__all__ = [
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "INDEX_NAME",
    "SnapshotError",
    "SnapshotNotFound",
    "SnapshotIntegrityError",
    "SnapshotVersionError",
    "save_snapshot",
    "load_snapshot",
]

#: the only on-disk index format; loads refuse any other version.
FORMAT_VERSION = 4

MANIFEST_NAME = "manifest.json"

INDEX_NAME = "index.npz"

#: files only earlier layouts wrote (v2 kept one ``.npz`` per shard); a save
#: removes them so a re-blessed directory holds just the current format.
_STALE_FILES = "shard-*.npz"

_NUMBER = (int, float)

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


def save_snapshot(index: SubjectiveTagIndex, directory: Union[str, Path]) -> Dict[str, object]:
    """Persist ``index`` under ``directory`` and return the manifest.

    The ``.npz`` lands first (via temp + ``os.replace``), the manifest —
    whose hash blesses it — last, so a reader never sees a new file blessed
    by an old manifest as valid.  Files of earlier layouts go only after
    the new manifest is in place.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    buffer = io.BytesIO()
    np.savez(buffer, **index.snapshot_arrays())
    data = buffer.getvalue()
    _write_atomic(directory / INDEX_NAME, data)
    manifest: Dict[str, object] = {
        "format_version": FORMAT_VERSION,
        "config": {
            "theta_index": index.theta_index,
            "normalize_degrees": index.normalize_degrees,
            "review_count_mode": index.review_count_mode,
            "theta_mode": index.theta_mode,
            "dynamic_margin": index.dynamic_margin,
        },
        "index_tags": [[tag.aspect, tag.opinion] for tag in index.tags],
        "files": {INDEX_NAME: {"sha256": _sha256(data), "bytes": len(data)}},
    }
    manifest["snapshot_sha256"] = _manifest_hash(manifest)
    _write_atomic(
        directory / MANIFEST_NAME,
        json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8"),
    )
    for stale in directory.glob(_STALE_FILES):
        stale.unlink(missing_ok=True)
    return manifest


def _field(container: Dict[str, Any], key: str, kind) -> Any:
    """``container[key]`` when it is a ``kind``, else a typed integrity error.

    A re-blessed manifest passes the hash check whatever it holds, so every
    field the loader reads is checked here rather than left to raise an
    untyped error further in.
    """
    value = container.get(key)
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise SnapshotIntegrityError(f"manifest field {key!r} is malformed: {value!r}")
    return value


def _index_tag(pair: Any) -> SubjectiveTag:
    if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(p, str) for p in pair)):
        raise SnapshotIntegrityError(f"manifest index tag is malformed: {pair!r}")
    return SubjectiveTag(aspect=pair[0], opinion=pair[1])


def _load_arrays(directory: Path, expected_sha: str) -> Dict[str, np.ndarray]:
    path = directory / INDEX_NAME
    if not path.exists():
        raise SnapshotIntegrityError(f"snapshot file missing: {INDEX_NAME}")
    data = path.read_bytes()
    if _sha256(data) != expected_sha:
        raise SnapshotIntegrityError(f"content hash mismatch for {INDEX_NAME}")
    try:
        with np.load(io.BytesIO(data), allow_pickle=False) as npz:
            arrays = {key: npz[key] for key in npz.files}
    except Exception as exc:
        raise SnapshotIntegrityError(f"unreadable snapshot file {INDEX_NAME}: {exc}") from exc
    missing = [key for key in _REQUIRED_ARRAYS if key not in arrays]
    if missing:
        raise SnapshotIntegrityError(f"snapshot file {INDEX_NAME} lacks arrays: {missing}")
    return arrays


def load_snapshot(
    directory: Union[str, Path], similarity: ConceptualSimilarity
) -> Tuple[SubjectiveTagIndex, str]:
    """Rebuild the index persisted under ``directory``.

    Returns the index and the ``snapshot_sha256`` of the manifest it was
    verified against, so a caller names the snapshot it actually loaded.
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
    if not isinstance(manifest, dict):
        raise SnapshotIntegrityError("manifest is not a JSON object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise SnapshotVersionError(
            f"snapshot format_version {version!r} != supported {FORMAT_VERSION}"
        )
    if _manifest_hash(manifest) != manifest.get("snapshot_sha256"):
        raise SnapshotIntegrityError("manifest hash mismatch (torn or edited snapshot)")
    config = _field(manifest, "config", dict)
    meta = _field(_field(manifest, "files", dict), INDEX_NAME, dict)
    arrays = _load_arrays(directory, _field(meta, "sha256", str))
    try:
        expected_tags = [_index_tag(pair) for pair in _field(manifest, "index_tags", list)]
        index = SubjectiveTagIndex.from_snapshot_arrays(
            similarity,
            arrays,
            theta_index=float(_field(config, "theta_index", _NUMBER)),
            normalize_degrees=_field(config, "normalize_degrees", bool),
            review_count_mode=_field(config, "review_count_mode", str),
            theta_mode=_field(config, "theta_mode", str),
            dynamic_margin=float(_field(config, "dynamic_margin", _NUMBER)),
        )
    except (ValueError, TypeError, IndexError) as exc:
        raise SnapshotIntegrityError(f"inconsistent snapshot: {exc}") from exc
    if index.tags != expected_tags:
        raise SnapshotIntegrityError(f"{INDEX_NAME} indexes a different tag list than the manifest")
    return index, manifest["snapshot_sha256"]
