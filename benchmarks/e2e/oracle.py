"""Correctness gate: the probes' expected payloads from an in-process facade.

The oracle is built from the same world and the same saved weights as the
server, then answers the probes sequentially through the single-threaded
entry points the serving runtime promises to match byte for byte:
``Saccs.answer`` for utterances, ``Saccs.answer_tags`` for tags, a
``ConversationSession`` with ``ServeConfig().session_top_k`` for ``say``,
and ``prepare_rebuild`` + ``commit_rebuild`` (the background reindex's two
halves) for the reindex.  Expected payloads go through a JSON round trip,
so the comparison is exact on every float.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Sequence

from benchmarks.e2e.workloads import Request

__all__ = ["cached_expected", "compare", "expected_payloads"]


def _pairs(results) -> list:
    return [[entity_id, score] for entity_id, score in results]


def expected_payloads(probes: Sequence[Request], model_dir: Path) -> List[Dict[str, object]]:
    """The fields of each probe's response the runtime promises to match."""
    from benchmarks.e2e import build
    from repro.core import ConversationSession, SubjectiveTag
    from repro.serve import ServeConfig
    from repro.serve.protocol import SayResponse

    args = build.serve_defaults()
    world = build.make_world(args)
    saccs = build.build_saccs(args, world, build.load_extractor(model_dir))
    saccs.build_index(build.dimension_tags(world))
    sessions: Dict[str, ConversationSession] = {}
    expected: List[Dict[str, object]] = []
    for probe in probes:
        body = json.loads(probe.body)
        if probe.kind == "utterance":
            utterance = body["utterance"]
            parsed = saccs.dialog.recognizer.parse(utterance)
            tags = saccs.extractor.extract(parsed.tokens)
            results = saccs.answer(utterance)
            payload = {
                "results": _pairs(results),
                "tags": [tag.text for tag in tags],
                "generation": saccs.index_generation,
            }
        elif probe.kind == "tags":
            tags = [SubjectiveTag.from_text(text) for text in body["tags"]]
            payload = {
                "results": _pairs(saccs.answer_tags(tags)),
                "tags": [tag.text for tag in tags],
                "generation": saccs.index_generation,
            }
        elif probe.kind == "say":
            session_id = probe.path.split("/")[2]
            session = sessions.get(session_id)
            if session is None:
                session = sessions[session_id] = ConversationSession(
                    saccs, top_k=ServeConfig().session_top_k
                )
            turn = session.say(body["utterance"])
            payload = SayResponse(
                session_id=session_id,
                turn=turn,
                state_summary=session.state_summary(),
                generation=saccs.index_generation,
            ).to_payload()
        elif probe.kind == "reindex":
            prepared = saccs.prepare_rebuild(
                indexed_tags=list(saccs.index.tags), pace=lambda: None
            )
            round_ = saccs.commit_rebuild(prepared)
            payload = {
                "generation": round_.generation,
                "adopted": [tag.text for tag in round_.added],
            }
        else:
            raise ValueError(f"unknown probe kind {probe.kind!r}")
        expected.append(json.loads(json.dumps(payload)))
    return expected


def cached_expected(probes: Sequence[Request], model_dir: Path) -> List[Dict[str, object]]:
    """:func:`expected_payloads`, computed once per model directory and probe set.

    The model directory is keyed by the program's source tree, so the
    oracle is rebuilt whenever the code it runs changes.
    """
    digest = hashlib.sha256(Path(__file__).read_bytes())
    for probe in probes:
        digest.update(json.dumps([probe.kind, probe.path, probe.body.decode("utf-8")]).encode())
    path = model_dir / f"oracle-{digest.hexdigest()[:16]}.json"
    if path.exists():
        return json.loads(path.read_text(encoding="utf-8"))
    expected = expected_payloads(probes, model_dir)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(expected), encoding="utf-8")
    os.replace(tmp, path)
    return expected


def compare(expected: Sequence[Dict[str, object]], served: Sequence[object]) -> List[str]:
    """One line per mismatching field; empty when every probe matched."""
    diffs: List[str] = []
    for number, (want, got) in enumerate(zip(expected, served)):
        if not isinstance(got, dict):
            diffs.append(f"probe {number}: no JSON object in the response ({got!r})")
            continue
        for key, value in want.items():
            if got.get(key) != value:
                diffs.append(
                    f"probe {number} field {key!r}:\n"
                    f"    oracle {json.dumps(value)}\n"
                    f"    served {json.dumps(got.get(key))}"
                )
    if len(served) != len(expected):
        diffs.append(f"{len(served)} probe responses for {len(expected)} probes")
    return diffs
