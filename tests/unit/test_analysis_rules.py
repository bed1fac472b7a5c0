"""Tests for the ``repro.analysis`` static-analysis framework.

The fixture corpus under ``tests/fixtures/analysis/`` carries at least one
seeded violation *and* one clean near-miss per rule; the tests assert exact
(rule-id, line) findings so rule regressions cannot hide behind count
matches.  Suppression and baseline behaviour are round-tripped in full.
"""

import os

import pytest

from repro.analysis import (
    AnalysisResult,
    Finding,
    SuppressionIndex,
    all_rules,
    analyze_source,
    get_rule,
    load_baseline,
    render_human,
    render_json,
    result_payload,
    rules_by_family,
    run_analysis,
    write_baseline,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures", "analysis")


def fixture_findings(relpath):
    result = run_analysis([os.path.join(FIXTURES, relpath)], root=FIXTURES)
    assert not result.errors
    return [(f.rule_id, f.line) for f in result.new]


# ---------------------------------------------------------------- fixtures


def test_lock_family_seeded_violations():
    assert fixture_findings("serve/locks_bad.py") == [
        ("check-then-act", 13),
        ("unguarded-attr-write", 15),
        ("thread-no-daemon", 16),
        ("unguarded-attr-write", 17),
    ]


def test_lock_family_near_misses_are_clean():
    assert fixture_findings("serve/locks_ok.py") == []


def test_observability_family_seeded_violations():
    assert fixture_findings("obs/metric_bad.py") == [
        ("metric-name-literal", 9),
        ("metric-name-literal", 10),
        ("metric-name-literal", 12),
        ("metric-name-literal", 13),
        ("metric-name-literal", 18),
    ]


def test_observability_family_near_misses_are_clean():
    assert fixture_findings("obs/metric_ok.py") == []


def test_determinism_family_seeded_violations():
    assert fixture_findings("core/determinism_bad.py") == [
        ("global-rng", 10),
        ("global-rng", 11),
        ("unstable-argsort", 13),
        ("set-iteration-order", 19),
        ("set-iteration-order", 21),
    ]


def test_determinism_family_near_misses_are_clean():
    assert fixture_findings("core/determinism_ok.py") == []


def test_conversation_determinism_seeded_violations():
    # The repo-wide global-rng rule also fires on line 12; the dedicated
    # conversation rule flags both the clock read and the RNG draw.
    assert fixture_findings("conversation/determinism_bad.py") == [
        ("conversation-determinism", 8),
        ("conversation-determinism", 12),
        ("global-rng", 12),
    ]


def test_conversation_determinism_near_misses_are_clean():
    assert fixture_findings("conversation/determinism_ok.py") == []


def test_conversation_determinism_scope_is_package_anchored():
    rule = get_rule("conversation-determinism")
    assert rule.applies_to("src/repro/conversation/stage.py")
    assert rule.applies_to("src/repro/conversation/rewrite.py")
    assert not rule.applies_to("src/repro/core/session.py")
    assert not rule.applies_to("src/repro/serve/runtime.py")


def test_wallclock_rule_fires_only_inside_ranking_scope():
    assert fixture_findings("ir/ranking_bad.py") == [("wallclock-in-ranking", 7)]
    assert fixture_findings("ir/ranking_ok.py") == []
    # The same call sits in core/determinism_bad.py line 12 but that path is
    # outside the ranking-module scope, so the rule stays quiet there.
    assert ("wallclock-in-ranking", 12) not in fixture_findings("core/determinism_bad.py")


def test_numpy_family_seeded_violations():
    assert fixture_findings("nn/kernel_bad.py") == [
        ("empty-no-fill", 7),
        ("float-array-compare", 9),
        ("implicit-dtype", 10),
    ]


def test_numpy_family_near_misses_are_clean():
    assert fixture_findings("nn/kernel_ok.py") == []


def test_tape_free_inference_seeded_violations():
    assert fixture_findings("nn/infer_bad.py") == [
        ("tape-free-inference", 7),
        ("tape-free-inference", 11),
        ("tape-free-inference", 15),
        ("tape-free-inference", 19),
    ]


def test_tape_free_inference_near_misses_are_clean():
    assert fixture_findings("nn/infer_ok.py") == []


def test_tape_free_inference_scope_targets_the_inference_module():
    rule = get_rule("tape-free-inference")
    assert rule.applies_to("src/repro/nn/infer.py")
    assert not rule.applies_to("src/repro/nn/tensor.py")
    assert not rule.applies_to("src/repro/core/tagger.py")


def test_persistence_family_seeded_violations():
    assert fixture_findings("persistence_bad.py") == [
        ("atomic-file-write", 10),
        ("atomic-file-write", 14),
        ("atomic-file-write", 18),
        ("atomic-file-write", 23),
        ("atomic-file-write", 27),
    ]


def test_persistence_family_near_misses_are_clean():
    assert fixture_findings("persistence_ok.py") == []


def test_api_family_seeded_violations():
    assert fixture_findings("api_bad.py") == [
        ("mutable-default", 4),
        ("mode-flip-no-restore", 5),
        ("bare-except", 8),
    ]


def test_api_family_near_misses_are_clean():
    assert fixture_findings("api_ok.py") == []


def test_no_print_rule_seeded_violation():
    assert fixture_findings("print_bad.py") == [("no-print-in-src", 5)]


def test_no_print_rule_near_misses_are_clean():
    assert fixture_findings("print_ok.py") == []


def test_no_print_rule_exempts_cli_reporters_and_log_emitter():
    rule = get_rule("no-print-in-src")
    assert not rule.applies_to("src/repro/cli.py")
    assert not rule.applies_to("src/repro/analysis/reporters.py")
    assert not rule.applies_to("src/repro/obs/log.py")
    assert rule.applies_to("src/repro/serve/runtime.py")
    assert rule.applies_to("src/repro/core/saccs.py")
    # The exemption is honoured end-to-end, not just in applies_to.
    source = 'print("hi")\n'
    assert analyze_source(source, "src/repro/cli.py").findings == []
    report = analyze_source(source, "src/repro/serve/runtime.py")
    assert [f.rule_id for f in report.findings] == ["no-print-in-src"]


def test_every_rule_family_has_a_seeded_true_positive():
    result = run_analysis([FIXTURES], root=FIXTURES)
    found_rules = {f.rule_id for f in result.new} | {f.rule_id for f in result.suppressed}
    families_hit = {
        rule.family for rule in all_rules() if rule.rule_id in found_rules
    }
    assert families_hit == {
        "api-hygiene",
        "concurrency",
        "determinism",
        "lock-discipline",
        "numpy-kernel",
        "observability",
        "persistence",
    }


# ----------------------------------------------------------- suppressions


def test_inline_and_standalone_suppressions_bind():
    result = run_analysis([os.path.join(FIXTURES, "suppressed.py")], root=FIXTURES)
    assert [(f.rule_id, f.line) for f in result.new] == []
    assert sorted((f.rule_id, f.line) for f in result.suppressed) == [
        ("bare-except", 8),
        ("mutable-default", 4),
    ]


def test_standalone_suppression_skips_its_comment_block():
    source = (
        "import numpy as np\n"
        "\n"
        "def f(x):\n"
        "    # repro: disable=unstable-argsort — ties cannot reach the\n"
        "    # output because scores are distinct by construction.\n"
        "    return np.argsort(x)\n"
    )
    report = analyze_source(source, "core/filtering.py")
    assert report.findings == []
    assert [f.rule_id for f in report.suppressed] == ["unstable-argsort"]


def test_disable_all_suppresses_every_rule_on_the_line():
    source = "def f(items=[]):  # repro: disable=all\n    return items\n"
    report = analyze_source(source, "anything.py")
    assert report.findings == []
    assert [f.rule_id for f in report.suppressed] == ["mutable-default"]


def test_unrelated_suppression_does_not_bind():
    source = "def f(items=[]):  # repro: disable=bare-except\n    return items\n"
    report = analyze_source(source, "anything.py")
    assert [f.rule_id for f in report.findings] == ["mutable-default"]


def test_suppression_on_decorator_line_reaches_the_def():
    # Findings for a decorated function anchor at the ``def`` line, not the
    # decorator's — the suppression must follow (PR 9 regression).
    source = (
        "import functools\n"
        "\n"
        "@functools.wraps(print)  # repro: disable=mutable-default — shared\n"
        "def f(items=[]):\n"
        "    return items\n"
    )
    report = analyze_source(source, "anything.py")
    assert report.findings == []
    assert [(f.rule_id, f.line) for f in report.suppressed] == [("mutable-default", 4)]


def test_suppression_on_continuation_line_reaches_the_statement_anchor():
    # The finding anchors at line 1 (the statement); the annotation sits on
    # a continuation line of the same multi-line statement (PR 9 regression).
    source = (
        "handle = open(\n"
        '    "state.json",\n'
        '    "w",  # repro: disable=atomic-file-write — scratch file, crash-safe\n'
        ")\n"
    )
    report = analyze_source(source, "anything.py")
    assert report.findings == []
    assert [(f.rule_id, f.line) for f in report.suppressed] == [
        ("atomic-file-write", 1)
    ]


def test_suppression_in_function_body_does_not_leak_to_the_signature():
    # Only decorator lines and the signature span forward to the ``def``
    # anchor; a suppression buried in the body stays exactly where it is.
    source = (
        "def f(items=[]):\n"
        "    x = 1  # repro: disable=mutable-default\n"
        "    return items + [x]\n"
    )
    report = analyze_source(source, "anything.py")
    assert [(f.rule_id, f.line) for f in report.findings] == [("mutable-default", 1)]
    assert report.suppressed == []


# --------------------------------------------------------------- baseline


def test_baseline_round_trip(tmp_path):
    baseline_path = str(tmp_path / "baseline.json")
    first = run_analysis([FIXTURES], root=FIXTURES)
    assert first.new  # the corpus seeds violations
    write_baseline(baseline_path, first.new)
    second = run_analysis([FIXTURES], root=FIXTURES, baseline_path=baseline_path)
    assert second.new == []
    assert sorted(second.baselined) == sorted(first.new)
    # A fresh violation not in the baseline still fails.
    extra = tmp_path / "extra.py"
    extra.write_text("def f(items=[]):\n    return items\n")
    third = run_analysis(
        [FIXTURES, str(extra)], root=FIXTURES, baseline_path=baseline_path
    )
    assert [(f.rule_id, f.line) for f in third.new] == [("mutable-default", 1)]


def test_stale_baseline_entries_are_reported_but_do_not_fail(tmp_path):
    target = tmp_path / "module.py"
    target.write_text("def f(items=[]):\n    return items\n")
    baseline_path = str(tmp_path / "baseline.json")
    first = run_analysis([str(target)], root=str(tmp_path))
    write_baseline(baseline_path, first.new)
    # The code moves on: the finding disappears but the baseline keeps it.
    target.write_text("def f(items=None):\n    return items or []\n")
    result = run_analysis(
        [str(target)], root=str(tmp_path), baseline_path=baseline_path
    )
    assert result.ok  # stale entries warn, they do not fail
    assert result.stale_baseline == ["module.py:mutable-default:1"]


def test_stale_detection_is_limited_to_scanned_paths(tmp_path):
    scanned = tmp_path / "scanned.py"
    scanned.write_text("x = 1\n")
    other = tmp_path / "other.py"
    other.write_text("def f(items=[]):\n    return items\n")
    baseline_path = str(tmp_path / "baseline.json")
    accepted = run_analysis([str(other)], root=str(tmp_path))
    write_baseline(baseline_path, accepted.new)
    # A scoped run over scanned.py only must not declare other.py's
    # accepted findings stale — it never looked at that file.
    result = run_analysis(
        [str(scanned)], root=str(tmp_path), baseline_path=baseline_path
    )
    assert result.stale_baseline == []


def test_stale_detection_is_limited_to_active_rules(tmp_path):
    target = tmp_path / "module.py"
    target.write_text("def f(items=[]):\n    return items\n")
    baseline_path = str(tmp_path / "baseline.json")
    first = run_analysis([str(target)], root=str(tmp_path))
    write_baseline(baseline_path, first.new)
    # A rule-scoped run (e.g. `repro locks` triaging only the concurrency
    # family) never executes mutable-default, so it cannot judge — let
    # alone prune — that rule's accepted entries.
    result = run_analysis(
        [str(target)],
        root=str(tmp_path),
        rules=[get_rule("bare-except")],
        baseline_path=baseline_path,
    )
    assert result.stale_baseline == []


def test_suppressed_findings_are_not_counted_stale(tmp_path):
    target = tmp_path / "module.py"
    target.write_text("def f(items=[]):\n    return items\n")
    baseline_path = str(tmp_path / "baseline.json")
    first = run_analysis([str(target)], root=str(tmp_path))
    write_baseline(baseline_path, first.new)
    # The finding is later annotated inline: still produced, hence the
    # baseline entry is redundant but NOT stale-as-in-vanished.
    target.write_text(
        "def f(items=[]):  # repro: disable=mutable-default\n    return items\n"
    )
    result = run_analysis(
        [str(target)], root=str(tmp_path), baseline_path=baseline_path
    )
    assert result.stale_baseline == []


def test_baseline_missing_file_is_empty(tmp_path):
    assert load_baseline(str(tmp_path / "absent.json")) == set()


def test_baseline_rejects_unknown_version(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text('{"version": 99, "findings": []}')
    with pytest.raises(ValueError):
        load_baseline(str(path))


# ------------------------------------------------------ registry / engine


def test_registry_has_seven_families_and_unique_ids():
    rules = all_rules()
    ids = [rule.rule_id for rule in rules]
    assert len(ids) == len(set(ids))
    assert len(rules) >= 19
    assert set(rules_by_family()) == {
        "api-hygiene",
        "concurrency",
        "determinism",
        "lock-discipline",
        "numpy-kernel",
        "observability",
        "persistence",
    }
    for rule in rules:
        assert rule.summary and rule.rationale


def test_get_rule_unknown_id_raises():
    with pytest.raises(KeyError):
        get_rule("no-such-rule")


def test_scope_matching_is_segment_anchored():
    rule = get_rule("implicit-dtype")
    assert rule.applies_to("src/repro/nn/crf.py")
    assert rule.applies_to("nn/kernel_bad.py")
    assert not rule.applies_to("src/repro/cnn/crf.py")
    assert not rule.applies_to("src/repro/serve/runtime.py")


def test_syntax_error_is_reported_not_raised(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    result = run_analysis([str(bad)], root=str(tmp_path))
    assert not result.ok
    assert result.errors and "syntax error" in result.errors[0].error


def test_init_and_locked_methods_are_exempt():
    source = (
        "import threading\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._state = 0\n"
        "    def _bump_locked(self):\n"
        "        self._state += 1\n"
    )
    report = analyze_source(source, "x.py")
    assert report.findings == []


def test_reporters_render_both_formats():
    result = run_analysis([os.path.join(FIXTURES, "api_bad.py")], root=FIXTURES)
    human = render_human(result)
    assert "mutable-default" in human and "api_bad.py" in human
    payload = result_payload(result)
    assert payload["ok"] is False
    assert payload["summary"]["new"] == 3
    assert "mutable-default" in render_json(result)


def test_finding_key_is_stable():
    finding = Finding(path="a/b.py", line=7, col=0, rule_id="bare-except", message="m")
    assert finding.key == "a/b.py:bare-except:7"


def test_suppression_index_len_counts_annotated_lines():
    index = SuppressionIndex(["x = 1  # repro: disable=bare-except", "y = 2"])
    assert len(index) == 1


def test_analysis_result_ok_property():
    assert AnalysisResult().ok
