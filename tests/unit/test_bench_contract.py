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
