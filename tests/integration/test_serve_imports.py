"""A served process loads only what serving runs.

SACCS serves a turn as extraction → Eq. 1 lookup → Algorithm 1; training,
the data-programming pairer, the IR/SIM baselines, the crowd simulation and
the debug-only trace renderers are offline.  A child interpreter builds the
runtime the way ``benchmarks/e2e/server.py`` does, sends one request of each
kind the benchmark sends, and reports the ``repro`` modules it loaded; none
of :data:`OFFLINE_MODULES` may be among them.

``python -m tests.integration.test_serve_imports`` prints the offline
modules a runtime serving the benchmark's trained model loads (expected:
none).
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parents[2]

#: modules (and packages, with everything under them) a served process
#: must not load.
OFFLINE_MODULES = (
    "repro.weak",
    "repro.ir",
    "repro.core.baselines",
    "repro.core.evaluation",
    "repro.core.fraud",
    "repro.core.pairing",
    "repro.core.profiles",
    "repro.core.snapshot",
    "repro.core.training",
    "repro.data.crowd",
    "repro.data.fraud",
    "repro.data.io",
    "repro.data.pairing",
    "repro.data.semeval",
    "repro.bert.corpus",
    "repro.bert.pretrain",
    "repro.nn.optim",
    "repro.obs.profile",
    "repro.obs.render",
)

_CHILD = r"""
import http.client
import json
import sys
import time
from pathlib import Path

from benchmarks.e2e import build
from repro.obs import TraceStore, Tracer, default_slos, get_logger
from repro.serve import SaccsRuntime, ServeConfig
from repro.serve.http import SaccsHttpServer

args = build.serve_defaults()
args.entities, args.reviews = 12, 4.0
world = build.make_world(args)
saccs = build.build_saccs(args, world, build.load_extractor(Path(sys.argv[1])))
saccs.ingest_reviews()
saccs.build_index(build.dimension_tags(world))
config = ServeConfig(
    max_batch_size=args.max_batch_size,
    max_wait_ms=args.max_wait_ms,
    workers=args.workers,
    cache_size=args.cache_size,
    session_ttl_seconds=args.session_ttl,
    collector_interval_seconds=0.02,
    collector_retention=args.collector_retention,
)
tracer = Tracer(
    store=TraceStore(
        capacity=args.trace_capacity, slow_threshold_seconds=args.slow_ms / 1000.0
    ),
    logger=get_logger("repro.serve"),
    sample_every=1,
)
runtime = SaccsRuntime(saccs, config, tracer=tracer, slos=default_slos())
with SaccsHttpServer(runtime, port=0) as server:
    conn = http.client.HTTPConnection(server.host, server.port, timeout=60.0)
    for method, path, body in [
        ("POST", "/search", {"utterance": "I am looking for a restaurant with delicious food."}),
        ("POST", "/search", {"tags": ["really friendly staff"]}),
        ("POST", "/session/probe/say", {"utterance": "find me a quiet place"}),
        ("POST", "/admin/reindex", {"background": True}),
        ("GET", "/healthz", None),
        ("GET", "/metrics", None),
    ]:
        conn.request(method, path, body=None if body is None else json.dumps(body))
        response = conn.getresponse()
        response.read()
        assert response.status == 200, (path, response.status)
    conn.close()
    time.sleep(0.1)  # a few collector samples
print(json.dumps(sorted(name for name in sys.modules if name.startswith("repro"))))
"""


def offline_modules_served(model_dir: Path) -> List[str]:
    """The :data:`OFFLINE_MODULES` a child serving ``model_dir`` loads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-c", _CHILD, str(model_dir)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout.splitlines()[-1])
    return [
        name
        for name in loaded
        if any(name == guarded or name.startswith(guarded + ".") for guarded in OFFLINE_MODULES)
    ]


def test_a_served_runtime_loads_no_offline_module(tmp_path, monkeypatch):
    """The model is the benchmark's recipe with every training step skipped:
    a random-weight encoder in its artifact cache and an untrained tagger."""
    from benchmarks.e2e import build
    from repro.bert import pretrain
    from repro.nn import save_module

    monkeypatch.setattr(pretrain, "pretrain_mlm", lambda *args, **kwargs: None)
    save_module(build._tagger(tmp_path), tmp_path / build.MODEL_FILE)
    assert offline_modules_served(tmp_path) == []


if __name__ == "__main__":
    from benchmarks.e2e.build import ensure_model

    print(offline_modules_served(ensure_model(ROOT)))
