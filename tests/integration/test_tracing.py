"""End-to-end tracing smoke test: a traced ``/search`` on a seeded world
produces the expected span tree, retrievable over the debug endpoints and
renderable by ``repro trace``.

This is the acceptance path for the observability subsystem: serve →
extraction → index stages must appear as children of the batch span with
consistent parent/child ids, and the span-derived stage histograms must
surface in ``/metrics``.
"""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core import (
    HeuristicPairer,
    Saccs,
    SaccsConfig,
    SequenceTagger,
    SubjectiveTag,
    TagExtractor,
    TaggerTrainer,
    TaggerTrainingConfig,
    TreePairingHeuristic,
)
from repro.bert import PretrainPlan, pretrained_encoder
from repro.data import WorldConfig, build_tagging_dataset, build_world
from repro.obs import TraceStore, Tracer
from repro.serve import SaccsHttpServer, SaccsRuntime, ServeConfig
from repro.text import ChunkParser, ConceptualSimilarity, PosLexicon, restaurant_lexicon


def _post(url: str, payload) -> dict:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read())


def _get(url: str) -> dict:
    with urllib.request.urlopen(url) as response:
        return json.loads(response.read())


@pytest.fixture(scope="module")
def traced_server():
    world = build_world(WorldConfig.small(num_entities=20, mean_reviews=6))
    encoder = pretrained_encoder("restaurants", plan=PretrainPlan.quick(seed=31))
    tagger = SequenceTagger(encoder, np.random.default_rng(0))
    TaggerTrainer(tagger, TaggerTrainingConfig(epochs=8)).fit(
        build_tagging_dataset("S1", scale=0.06, seed=6).train
    )
    parser = ChunkParser(PosLexicon(restaurant_lexicon()))
    extractor = TagExtractor(
        tagger, HeuristicPairer([TreePairingHeuristic(parser, direction="opinions")])
    )
    system = Saccs(
        world.entities, world.reviews, extractor,
        ConceptualSimilarity(restaurant_lexicon()), SaccsConfig(),
    )
    system.build_index([SubjectiveTag.from_text(d.name) for d in world.dimensions])
    # slow_threshold_seconds=0 marks every trace slow, so the slow ring is
    # deterministically populated for the listing assertions.
    tracer = Tracer(store=TraceStore(slow_threshold_seconds=0.0))
    runtime = SaccsRuntime(system, ServeConfig(cache_size=64), tracer=tracer)
    with SaccsHttpServer(runtime) as server:
        yield server, runtime


@pytest.fixture(scope="module")
def traced_search(traced_server):
    """One traced utterance ``/search`` plus its full trace payload."""
    server, runtime = traced_server
    response = _post(
        f"{server.url}/search",
        {"utterance": "find me a restaurant with delicious food"},
    )
    listing = _get(f"{server.url}/debug/traces")
    utterance_traces = [
        summary
        for summary in listing["recent"]
        if summary["name"] == "serve.search"
        and summary["attributes"].get("kind") == "utterance"
    ]
    assert utterance_traces, "traced utterance search did not reach the store"
    payload = _get(f"{server.url}/debug/trace/{utterance_traces[0]['trace_id']}")
    return response, listing, payload


EXPECTED_STAGES = [
    "serve.enqueue_wait",
    "serve.batch",
    "extract.encode",
    "extract.decode",
    "extract.pair",
    "index.lookup",
    "rank.filter_and_rank",
]


class TestSpanTree:
    def test_search_still_answers(self, traced_search):
        response, _, _ = traced_search
        assert response["results"] is not None
        assert response["cached"] is False

    def test_listing_is_enabled_and_keeps_slow_exemplars(self, traced_search):
        _, listing, _ = traced_search
        assert listing["enabled"] is True
        assert listing["recorded"] >= 1
        assert listing["recent"] and listing["slow"]
        assert all(summary["slow"] for summary in listing["slow"])

    def test_span_tree_has_expected_stages_in_parent_order(self, traced_search):
        _, _, payload = traced_search
        spans = payload["trace"]["spans"]
        # span_id is the insertion index + 1, unique within the trace.
        assert [item["span_id"] for item in spans] == list(range(1, len(spans) + 1))
        first = {}
        for item in spans:
            first.setdefault(item["name"], item)

        root = first["serve.search"]
        assert root["span_id"] == 1 and root["parent_id"] is None
        assert root["attributes"]["kind"] == "utterance"
        for name in ("serve.parse", "serve.enqueue_wait", "serve.batch"):
            assert first[name]["parent_id"] == root["span_id"], name
        batch = first["serve.batch"]
        for name in EXPECTED_STAGES[2:]:
            assert first[name]["parent_id"] == batch["span_id"], name
        # Stage order within the batch: encode → decode → pair → lookup → rank.
        stage_ids = [first[name]["span_id"] for name in EXPECTED_STAGES]
        assert stage_ids == sorted(stage_ids)
        for item in spans:
            assert item["duration_seconds"] >= 0.0
            assert item["end"] >= item["start"]

    def test_conv_classify_is_a_search_child_after_parse(self, traced_search):
        """The routing decision traces between parsing and the batch hand-off."""
        _, _, payload = traced_search
        spans = payload["trace"]["spans"]
        first = {}
        for item in spans:
            first.setdefault(item["name"], item)
        classify = first["conv.classify"]
        assert classify["parent_id"] == first["serve.search"]["span_id"]
        assert classify["attributes"]["route"] == "subjective"
        assert first["serve.parse"]["span_id"] < classify["span_id"]
        assert classify["span_id"] < first["serve.enqueue_wait"]["span_id"]

    def test_bypassed_route_traces_without_batch_stages(self, traced_server):
        """An objective utterance skips the queue and the encoder: after
        conv.classify it only ranks its API list through the facade."""
        server, runtime = traced_server
        _post(f"{server.url}/search", {"utterance": "a table in montreal"})
        listing = _get(f"{server.url}/debug/traces")
        bypassed = None
        for summary in listing["recent"]:
            if summary["name"] != "serve.search":
                continue
            payload = _get(f"{server.url}/debug/trace/{summary['trace_id']}")
            names = [item["name"] for item in payload["trace"]["spans"]]
            if "conv.classify" in names and "serve.batch" not in names:
                bypassed = payload
                break
        assert bypassed is not None, "bypassed search did not leave a trace"
        names = [item["name"] for item in bypassed["trace"]["spans"]]
        assert "serve.parse" in names
        for stage in EXPECTED_STAGES:
            if stage.startswith(("serve.", "extract.")):
                assert stage not in names
        assert "rank.filter_and_rank" in names
        assert runtime.metrics_snapshot()["counters"]["conv.route.objective"] >= 1

    def test_tree_endpoint_nests_children_under_the_root(self, traced_search):
        _, _, payload = traced_search
        tree = payload["tree"]
        assert tree["name"] == "serve.search"
        children = {child["name"] for child in tree["children"]}
        assert {"serve.parse", "serve.enqueue_wait", "serve.batch"} <= children
        batch = next(c for c in tree["children"] if c["name"] == "serve.batch")
        grandchildren = {child["name"] for child in batch["children"]}
        assert set(EXPECTED_STAGES[2:]) <= grandchildren

    def test_metrics_fold_span_derived_stage_histograms(self, traced_search, traced_server):
        server, _ = traced_server
        histograms = _get(f"{server.url}/metrics")["histograms"]
        for name in (
            "stage.serve.search_seconds",
            "stage.serve.batch_seconds",
            "stage.extract.encode_seconds",
            "stage.extract.decode_seconds",
            "stage.extract.pair_seconds",
            "stage.index.lookup_seconds",
            "stage.rank.filter_and_rank_seconds",
        ):
            assert histograms[name]["count"] >= 1, name

    def test_unknown_trace_is_a_404_envelope(self, traced_server):
        server, _ = traced_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{server.url}/debug/trace/t999999")
        assert excinfo.value.code == 404
        body = json.loads(excinfo.value.read())
        assert body["error"]["code"] == "trace_not_found"


class TestTraceCli:
    def test_renders_tree_from_saved_payload(self, traced_search, tmp_path, capsys):
        _, _, payload = traced_search
        saved = tmp_path / "trace.json"
        saved.write_text(json.dumps(payload))
        assert cli_main(["trace", "--input", str(saved)]) == 0
        output = capsys.readouterr().out
        assert output.startswith("trace t")
        assert "serve.batch" in output and "rank.filter_and_rank" in output

    def test_collapsed_stack_export(self, traced_search, tmp_path, capsys):
        _, _, payload = traced_search
        saved = tmp_path / "trace.json"
        saved.write_text(json.dumps(payload))
        assert cli_main(["trace", "--input", str(saved), "--collapsed"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("serve.search ")
        assert any(line.startswith("serve.search;serve.batch;extract.encode ") for line in lines)
        for line in lines:
            stack, value = line.rsplit(" ", 1)
            assert stack and int(value) >= 0

    def test_lists_and_fetches_from_a_live_server(self, traced_search, traced_server, capsys):
        server, _ = traced_server
        assert cli_main(["trace", "--url", server.url]) == 0
        listing = capsys.readouterr().out
        assert listing.startswith("recent (")
        assert "slow (" in listing and "serve.search" in listing
        _, _, payload = traced_search
        trace_id = payload["trace"]["trace_id"]
        assert cli_main(["trace", trace_id, "--url", server.url]) == 0
        assert "serve.batch" in capsys.readouterr().out

    def test_missing_trace_id_fails_cleanly(self, traced_server, capsys):
        server, _ = traced_server
        assert cli_main(["trace", "t999999", "--url", server.url]) == 1
        assert "server returned 404" in capsys.readouterr().err
