"""The end-to-end benchmark's contract with the CLI and ``SaccsConfig``.

``benchmarks/e2e`` builds the served system from ``repro serve``'s parsed
defaults and passes some of them on to ``SaccsConfig``.  Removing or
renaming one of those knobs would otherwise only fail in a benchmark run.
"""

import ast
from pathlib import Path

from benchmarks.e2e import build
from repro.core import OracleExtractor
from repro.data import WorldConfig, build_world

E2E = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"


def _args_read(path: Path) -> set:
    """Every ``args.<name>`` the module reads."""
    return {
        node.attr
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "args"
    }


def test_benchmark_reads_only_existing_serve_options():
    names = _args_read(E2E / "build.py") | _args_read(E2E / "server.py")
    assert {"shards", "lookup_workers", "encoder_precision"} <= names
    args = build.serve_defaults()
    assert sorted(name for name in names if not hasattr(args, name)) == []


def test_benchmark_builds_saccs_from_serve_defaults():
    world = build_world(WorldConfig.small(seed=3, num_entities=6, mean_reviews=2.0))
    args = build.serve_defaults()
    saccs = build.build_saccs(args, world, OracleExtractor())
    assert saccs.config.encoder_precision == args.encoder_precision
    assert saccs.config.index_shards == args.shards
    assert saccs.config.index_lookup_workers == args.lookup_workers


#: Runs in a child interpreter: ``spans.instrument`` wraps methods at class
#: level, and those wraps must not leak into the rest of the test session.
_TRACED_SERVE = r'''
import json
import urllib.request

import numpy as np

from benchmarks.e2e import build
from benchmarks.e2e.spans import SpanRecorder, instrument, traced_handler_factory
from repro.bert import PretrainPlan, pretrained_encoder
from repro.core import HeuristicPairer, SequenceTagger, TagExtractor, TreePairingHeuristic
from repro.data import WorldConfig, build_world
from repro.serve import SaccsRuntime, ServeConfig
from repro.serve import http as serve_http
from repro.text import ChunkParser, PosLexicon, restaurant_lexicon

args = build.serve_defaults()
world = build_world(WorldConfig.small(seed=3, num_entities=6, mean_reviews=2.0))
encoder = pretrained_encoder("restaurants", plan=PretrainPlan.quick(seed=build.ENCODER_SEED))
tagger = SequenceTagger(encoder, np.random.default_rng(0))
tagger.eval()
parser = ChunkParser(PosLexicon(restaurant_lexicon()))
extractor = TagExtractor(
    tagger, HeuristicPairer([TreePairingHeuristic(parser, direction="opinions")])
)
saccs = build.build_saccs(args, world, extractor)
saccs.build_index(build.dimension_tags(world))
runtime = SaccsRuntime(saccs, ServeConfig(collector_enabled=False))
recorder = SpanRecorder()
engine_seconds = instrument(recorder, runtime)
serve_http.make_handler = traced_handler_factory(recorder, serve_http.make_handler)
with serve_http.SaccsHttpServer(runtime, port=0) as server:
    request = urllib.request.Request(
        server.url + "/search",
        data=json.dumps({"utterance": "a restaurant with delicious food"}).encode(),
    )
    with urllib.request.urlopen(request) as response:
        payload = json.loads(response.read())
print(json.dumps({
    "results": payload["results"],
    "spans": sorted({span[2] for span in recorder.spans}),
    "engine": sorted(engine_seconds()),
}))
'''


def test_traced_benchmark_server_serves_an_utterance():
    """The ``--trace 1`` run reaches into ``src/`` by name: every method it
    wraps must exist, and one served utterance must cross each layer."""
    import json
    import os
    import subprocess
    import sys

    from benchmarks.e2e.layers import HANDLER, RUNTIME

    root = E2E.parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", _TRACED_SERVE],
        cwd=root, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["results"]
    assert {HANDLER, RUNTIME, "conv.parse", "extract", "rank"} <= set(report["spans"])
    assert report["engine"] == ["decode", "encode", "pair"]
