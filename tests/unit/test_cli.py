"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.serve import ServeConfig
from tests.unit.test_core_snapshot import MALFORMED_FIELDS, _rewrite_as_v2, _rewrite_manifest


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_world_generate_defaults(self):
        args = build_parser().parse_args(["world", "generate", "--out", "w.json"])
        assert args.entities == 60
        assert not args.fraud

    def test_search_requires_tags(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "--world", "w", "--index", "i"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8350
        assert args.max_batch_size == 16
        assert args.max_wait_ms == ServeConfig().max_wait_ms == 0.0
        assert args.world is None

    def test_serve_has_no_shard_flags(self):
        args = build_parser().parse_args(["serve"])
        assert (args.shards, args.lookup_workers) == (1, 0)
        for flag in ("--shards", "--lookup-workers"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["serve", flag, "2"])

    def test_lint_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.paths == ["src"]
        assert args.format == "human"
        assert args.root is None
        assert not args.list_rules

    def test_lint_json_format(self):
        args = build_parser().parse_args(["lint", "src", "tests", "--format", "json"])
        assert args.paths == ["src", "tests"]
        assert args.format == "json"

    def test_serve_collector_knobs(self):
        args = build_parser().parse_args(["serve"])
        assert args.no_collector is False
        assert args.collector_interval == 1.0
        assert args.collector_retention == 512
        assert args.slo_latency_ms == 100.0
        args = build_parser().parse_args(
            ["serve", "--no-collector", "--collector-interval", "0.5",
             "--collector-retention", "64", "--slo-latency-ms", "250"]
        )
        assert args.no_collector is True
        assert args.collector_interval == 0.5
        assert args.collector_retention == 64
        assert args.slo_latency_ms == 250.0

    def test_profile_defaults(self):
        args = build_parser().parse_args(["profile"])
        assert args.url == "http://127.0.0.1:8350"
        assert args.input is None
        assert args.limit is None
        assert args.slow_only is False
        assert args.diff is None
        assert args.top == 20
        assert args.json is False

    def test_profile_diff_and_input(self):
        args = build_parser().parse_args(
            ["profile", "--input", "traces.json", "--diff", "5", "--top", "3",
             "--slow-only", "--json"]
        )
        assert args.input == "traces.json"
        assert args.diff == 5 and args.top == 3
        assert args.slow_only is True and args.json is True

    def test_top_defaults(self):
        args = build_parser().parse_args(["top"])
        assert args.url == "http://127.0.0.1:8350"
        assert args.interval == 2.0
        assert args.window == 48
        assert args.iterations is None
        assert args.no_clear is False

    def test_top_knobs(self):
        args = build_parser().parse_args(
            ["top", "--url", "http://host:1", "--interval", "0.5",
             "--iterations", "3", "--no-clear"]
        )
        assert args.url == "http://host:1"
        assert args.iterations == 3 and args.no_clear is True


class TestCommands:
    def test_full_workflow(self, tmp_path, capsys):
        world_path = str(tmp_path / "world.json")
        index_path = str(tmp_path / "index.json")
        assert main(["world", "generate", "--entities", "10", "--reviews", "5",
                     "--out", world_path]) == 0
        assert main(["world", "show", "--path", world_path]) == 0
        assert main(["index", "build", "--world", world_path, "--out", index_path]) == 0
        assert main(["search", "--world", world_path, "--index", index_path,
                     "delicious food"]) == 0
        output = capsys.readouterr().out
        assert "query: delicious food" in output
        assert "indexed 18 tags" in output

    def test_fraud_flag_injects(self, tmp_path, capsys):
        world_path = str(tmp_path / "world.json")
        main(["world", "generate", "--entities", "10", "--reviews", "5",
              "--fraud", "--out", world_path])
        assert "fraud campaigns" in capsys.readouterr().out

    def test_custom_tags_index(self, tmp_path, capsys):
        from repro.core.snapshot import MANIFEST_NAME

        world_path = str(tmp_path / "world.json")
        index_dir = tmp_path / "index"
        main(["world", "generate", "--entities", "8", "--reviews", "4", "--out", world_path])
        main(["index", "build", "--world", world_path, "--out", str(index_dir),
              "--tags", "delicious food", "nice staff"])
        assert "indexed 2 tags" in capsys.readouterr().out
        manifest = json.loads((index_dir / MANIFEST_NAME).read_text())
        assert manifest["index_tags"] == [["food", "delicious"], ["staff", "nice"]]

    def test_unindexed_tag_combines_similar(self, tmp_path, capsys):
        world_path = str(tmp_path / "world.json")
        index_path = str(tmp_path / "index.json")
        main(["world", "generate", "--entities", "8", "--reviews", "4", "--out", world_path])
        main(["index", "build", "--world", world_path, "--out", index_path,
              "--tags", "delicious food"])
        main(["search", "--world", world_path, "--index", index_path, "tasty pasta"])
        assert "combined similar tags" in capsys.readouterr().out

    def test_datasets_listing(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for key in ("S1", "S2", "S3", "S4"):
            assert key in out

    def test_dynamic_theta_mode(self, tmp_path, capsys):
        from repro.core import OracleExtractor, Saccs, SaccsConfig, SubjectiveTag
        from repro.core.snapshot import load_snapshot
        from repro.data import load_world
        from repro.text import ConceptualSimilarity, restaurant_lexicon

        world_path = str(tmp_path / "world.json")
        index_path = str(tmp_path / "index")
        main(["world", "generate", "--entities", "8", "--reviews", "4", "--out", world_path])
        assert main(["index", "build", "--world", world_path, "--out", index_path,
                     "--theta-mode", "dynamic", "--tags", "delicious food"]) == 0

        # The built directory keeps the index config: a tag adopted after
        # the round trip maps exactly as it does on an in-process index.
        similarity = ConceptualSimilarity(restaurant_lexicon())
        loaded = load_snapshot(index_path, similarity)
        assert loaded.theta_mode == "dynamic"
        world = load_world(world_path)
        in_process = Saccs(
            world.entities, world.reviews, OracleExtractor(), similarity,
            SaccsConfig(theta_mode="dynamic"),
        )
        in_process.build_index([SubjectiveTag.from_text("delicious food")])
        adopted = SubjectiveTag.from_text("quick service")
        loaded.add_tag(adopted)
        in_process.index.add_tag(adopted)
        assert loaded.lookup(adopted) == in_process.index.lookup(adopted)


def _saved_trace(trace_id="t1"):
    def span(span_id, parent, name, start, duration):
        return {
            "span_id": span_id,
            "parent_id": parent,
            "name": name,
            "start": start,
            "duration_seconds": duration,
            "attributes": {},
        }

    return {
        "trace_id": trace_id,
        "name": "serve.search",
        "duration_seconds": 0.010,
        "slow": False,
        "spans": [
            span("s1", None, "serve.search", 0.0, 0.010),
            span("s2", "s1", "serve.extract", 1.0, 0.004),
        ],
    }


class TestProfileCli:
    """`repro profile` offline paths (saved payloads, no server)."""

    def test_renders_a_saved_trace_list(self, tmp_path, capsys):
        path = tmp_path / "traces.json"
        path.write_text(json.dumps([_saved_trace("t1"), _saved_trace("t2")]))
        assert main(["profile", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "aggregate profile  2 traces" in out
        assert "serve.extract" in out

    def test_renders_a_saved_diff_payload(self, tmp_path, capsys):
        from repro.obs import diff_profiles, merge_traces

        before = merge_traces([_saved_trace("b1")])
        slower = _saved_trace("a1")
        slower["spans"][1]["duration_seconds"] = 0.008
        after = merge_traces([slower])
        path = tmp_path / "diff.json"
        path.write_text(json.dumps({"diff": diff_profiles(before, after)}))
        assert main(["profile", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "profile diff" in out
        assert "serve.extract" in out

    def test_json_flag_emits_raw_payload(self, tmp_path, capsys):
        path = tmp_path / "traces.json"
        path.write_text(json.dumps([_saved_trace()]))
        assert main(["profile", "--input", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["traces"] == 1
        assert "serve.search;serve.extract" in payload["stacks"]

    def test_unreachable_server_fails_cleanly(self, capsys):
        assert main(["profile", "--url", "http://127.0.0.1:9"]) == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_top_unreachable_server_fails_cleanly(self, capsys):
        assert main(["top", "--url", "http://127.0.0.1:9", "--iterations", "1"]) == 1
        assert "cannot reach" in capsys.readouterr().err


class TestServeSnapshotWarmStart:
    """`repro serve --snapshot-dir`: cold build writes, warm start loads,
    corruption falls back to a cold build and re-blesses the directory."""

    def _args(self, snapdir):
        return build_parser().parse_args(
            ["serve", "--entities", "12", "--reviews", "4", "--seed", "9",
             "--snapshot-dir", str(snapdir)]
        )

    def test_cold_build_writes_then_warm_start_is_identical(self, tmp_path, capsys):
        from repro.cli import _build_serving_saccs
        from repro.core.snapshot import MANIFEST_NAME

        snapdir = tmp_path / "snap"
        cold, note = _build_serving_saccs(self._args(snapdir))
        assert note is None
        assert "wrote snapshot" in capsys.readouterr().out
        assert (snapdir / MANIFEST_NAME).exists()

        warm, warm_note = _build_serving_saccs(self._args(snapdir))
        assert warm_note is not None
        sha, load_seconds = warm_note
        assert len(sha) == 64 and load_seconds >= 0.0
        assert "warm-started" in capsys.readouterr().out
        queries = list(cold.index.tags)
        assert warm.index.lookup_similar_batch(
            queries, theta_filter=0.6
        ) == cold.index.lookup_similar_batch(queries, theta_filter=0.6)

    def test_warm_starts_from_index_build_output(self, tmp_path, capsys):
        from repro.cli import _build_serving_saccs

        world_path = str(tmp_path / "world.json")
        index_dir = str(tmp_path / "index")
        main(["world", "generate", "--entities", "8", "--reviews", "4", "--out", world_path])
        main(["index", "build", "--world", world_path, "--out", index_dir,
              "--tags", "delicious food", "nice staff"])
        capsys.readouterr()
        args = build_parser().parse_args(
            ["serve", "--world", world_path, "--snapshot-dir", index_dir]
        )
        saccs, note = _build_serving_saccs(args)
        assert note is not None
        assert "warm-started 2 index tags" in capsys.readouterr().out
        assert [tag.text for tag in saccs.index.tags] == ["delicious food", "nice staff"]

    def test_corrupt_snapshot_falls_back_to_cold_build(self, tmp_path, capsys):
        from repro.cli import _build_serving_saccs
        from repro.core.snapshot import INDEX_NAME

        snapdir = tmp_path / "snap"
        _build_serving_saccs(self._args(snapdir))
        stored = snapdir / INDEX_NAME
        stored.write_bytes(stored.read_bytes()[:50])
        capsys.readouterr()

        saccs, note = _build_serving_saccs(self._args(snapdir))
        out = capsys.readouterr().out
        assert "snapshot unusable" in out
        assert "wrote snapshot" in out  # the directory was re-blessed
        assert note is None
        assert saccs.index.tags  # the cold build actually indexed tags

        _, warm_note = _build_serving_saccs(self._args(snapdir))
        assert warm_note is not None  # fresh snapshot warm-starts again

    @pytest.mark.parametrize("field", sorted(MALFORMED_FIELDS))
    def test_reblessed_malformed_manifest_falls_back_to_cold_build(
        self, tmp_path, capsys, field
    ):
        from repro.cli import _build_serving_saccs

        snapdir = tmp_path / "snap"
        _build_serving_saccs(self._args(snapdir))
        _rewrite_manifest(snapdir, MALFORMED_FIELDS[field])
        capsys.readouterr()

        saccs, note = _build_serving_saccs(self._args(snapdir))
        out = capsys.readouterr().out
        assert "snapshot unusable" in out and "wrote snapshot" in out
        assert note is None and saccs.index.tags

    def test_v2_snapshot_directory_is_cold_built_and_reblessed(self, tmp_path, capsys):
        from repro.cli import _build_serving_saccs

        snapdir = tmp_path / "snap"
        _build_serving_saccs(self._args(snapdir))
        _rewrite_as_v2(snapdir)
        capsys.readouterr()

        _, note = _build_serving_saccs(self._args(snapdir))
        assert "format_version 2" in capsys.readouterr().out
        assert note is None
        _, warm_note = _build_serving_saccs(self._args(snapdir))
        assert warm_note is not None
