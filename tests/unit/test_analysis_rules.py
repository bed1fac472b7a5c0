"""Tests for the ``repro.analysis`` static-analysis framework.

The fixture corpus under ``tests/fixtures/analysis/`` carries at least one
seeded violation *and* one clean near-miss per rule; the tests assert exact
(rule-id, line) findings so rule regressions cannot hide behind count
matches.  Suppression binding and the unused-suppression audit are
round-tripped in full.
"""

import os

import pytest

from repro.analysis import (
    AnalysisResult,
    SuppressionIndex,
    all_rules,
    analyze_source,
    get_rule,
    render_human,
    render_json,
    result_payload,
    rules_by_family,
    run_analysis,
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
        ("unstable-argsort", 7),
        ("unstable-argsort", 8),
    ]


def test_determinism_family_near_misses_are_clean():
    assert fixture_findings("core/determinism_ok.py") == []


def test_numpy_family_seeded_violations():
    assert fixture_findings("nn/kernel_bad.py") == [
        ("implicit-dtype", 7),
        ("implicit-dtype", 8),
    ]


def test_numpy_family_near_misses_are_clean():
    assert fixture_findings("nn/kernel_ok.py") == []


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
    assert fixture_findings("api_bad.py") == [("mode-flip-no-restore", 5)]


def test_api_family_near_misses_are_clean():
    assert fixture_findings("api_ok.py") == []


# ------------------------------------------------------------- lock-factory


def _factory_source():
    with open(os.path.join(FIXTURES, "serve", "factory_bad.py"), "r", encoding="utf-8") as handle:
        return handle.read()


def test_lock_factory_flags_raw_primitives_in_src():
    rule = get_rule("lock-factory")
    report = analyze_source(
        _factory_source(), "src/repro/serve/factory_bad.py", rules=[rule]
    )
    assert [(f.rule_id, f.line) for f in report.findings] == [
        ("lock-factory", 5),
        ("lock-factory", 10),
        ("lock-factory", 11),
    ]


def test_lock_factory_exempts_the_factory_module_itself():
    rule = get_rule("lock-factory")
    report = analyze_source(
        _factory_source(), "src/repro/utils/locks.py", rules=[rule]
    )
    assert report.findings == []


def test_lock_factory_is_scoped_to_src():
    rule = get_rule("lock-factory")
    assert rule.applies_to("src/repro/serve/runtime.py")
    assert not rule.applies_to("src/repro/utils/locks.py")
    assert not rule.applies_to("tests/unit/test_serve.py")
    assert not rule.applies_to("serve/factory_bad.py")


def test_named_factories_do_not_trip_the_rule():
    source = (
        "from repro.utils.locks import make_lock\n"
        "import multiprocessing\n"
        "LOCK = make_lock('x')\n"
        "MP = multiprocessing.Lock()\n"
    )
    report = analyze_source(source, "src/repro/x.py", rules=[get_rule("lock-factory")])
    assert report.findings == []


def test_every_rule_family_has_a_seeded_true_positive():
    result = run_analysis([FIXTURES], root=FIXTURES)
    found_rules = {f.rule_id for f in result.new} | {f.rule_id for f in result.suppressed}
    families_hit = {
        rule.family for rule in all_rules() if rule.rule_id in found_rules
    }
    assert families_hit == {
        "api-hygiene",
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
        ("atomic-file-write", 10),
        ("thread-no-daemon", 7),
    ]
    assert result.unused_suppressions == []
    assert result.ok


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
    source = "import threading\nt = threading.Thread(target=print)  # repro: disable=all\n"
    report = analyze_source(source, "anything.py")
    assert report.findings == []
    assert [f.rule_id for f in report.suppressed] == ["thread-no-daemon"]
    assert report.unused == []


def test_unrelated_suppression_does_not_bind():
    source = (
        "import threading\n"
        "t = threading.Thread(target=print)  # repro: disable=lock-factory\n"
    )
    report = analyze_source(source, "anything.py")
    assert [f.rule_id for f in report.findings] == ["thread-no-daemon"]
    # ...and the directive that bound nothing is itself reported.
    assert [(f.rule_id, f.line) for f in report.unused] == [("lock-factory", 2)]


def test_suppression_on_decorator_line_reaches_the_def():
    # Findings in a decorated function's signature anchor at the ``def``
    # line, not the decorator's — the suppression must follow.
    source = (
        "import functools\n"
        "import threading\n"
        "\n"
        "@functools.wraps(print)  # repro: disable=thread-no-daemon — shared\n"
        "def f(worker=threading.Thread(target=print)):\n"
        "    return worker\n"
    )
    report = analyze_source(source, "anything.py")
    assert report.findings == []
    assert [(f.rule_id, f.line) for f in report.suppressed] == [("thread-no-daemon", 5)]
    assert report.unused == []


def test_suppression_on_continuation_line_reaches_the_statement_anchor():
    # The finding anchors at line 1 (the statement); the annotation sits on
    # a continuation line of the same multi-line statement.
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
        "import threading\n"
        "def f(worker=threading.Thread(target=print)):\n"
        "    x = 1  # repro: disable=thread-no-daemon\n"
        "    return worker, x\n"
    )
    report = analyze_source(source, "anything.py")
    assert [(f.rule_id, f.line) for f in report.findings] == [("thread-no-daemon", 2)]
    assert report.suppressed == []
    assert [(f.rule_id, f.line) for f in report.unused] == [("thread-no-daemon", 3)]


# ---------------------------------------------------- unused suppressions


def test_unused_and_unknown_suppressions_are_errors():
    result = run_analysis(
        [os.path.join(FIXTURES, "unused_suppressed.py")], root=FIXTURES
    )
    assert result.new == []
    assert [
        (f.path, f.line, f.rule_id, f.message) for f in result.unused_suppressions
    ] == [
        (
            "unused_suppressed.py",
            7,
            "thread-no-daemon",
            "disable=thread-no-daemon covers no finding",
        ),
        (
            "unused_suppressed.py",
            9,
            "no-such-rule",
            "disable=no-such-rule names no known rule",
        ),
    ]
    assert not result.ok
    payload = result_payload(result)
    assert payload["summary"]["unused_suppressions"] == 2
    assert "names no known rule" in render_human(result)


def test_one_directive_used_by_one_of_two_ids_reports_the_other():
    source = (
        "import threading\n"
        "t = threading.Thread(target=print)  # repro: disable=thread-no-daemon,lock-factory\n"
    )
    report = analyze_source(source, "anything.py")
    assert [f.rule_id for f in report.suppressed] == ["thread-no-daemon"]
    assert [(f.rule_id, f.line) for f in report.unused] == [("lock-factory", 2)]


def test_rule_scoped_run_only_audits_its_own_rules():
    # A run restricted to one rule cannot tell whether a directive for a
    # rule it skipped still covers something, so it leaves those alone.
    source = "import threading\nt = threading.Thread(target=print)  # repro: disable=all\n"
    rules = [get_rule("implicit-dtype")]
    assert analyze_source(source, "anything.py", rules=rules).unused == []
    source = "x = 1  # repro: disable=thread-no-daemon\n"
    assert analyze_source(source, "anything.py", rules=rules).unused == []
    source = "x = 1  # repro: disable=no-such-rule\n"
    assert [f.rule_id for f in analyze_source(source, "anything.py", rules=rules).unused] == [
        "no-such-rule"
    ]


# ------------------------------------------------------ registry / engine


KEPT_RULES = {
    "atomic-file-write",
    "check-then-act",
    "implicit-dtype",
    "lock-factory",
    "metric-name-literal",
    "mode-flip-no-restore",
    "thread-no-daemon",
    "unguarded-attr-write",
    "unstable-argsort",
}


def test_registry_has_six_families_and_unique_ids():
    rules = all_rules()
    ids = [rule.rule_id for rule in rules]
    assert len(ids) == len(set(ids))
    assert set(ids) == KEPT_RULES
    assert set(rules_by_family()) == {
        "api-hygiene",
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
    assert "mode-flip-no-restore" in human and "api_bad.py" in human
    payload = result_payload(result)
    assert payload["ok"] is False
    assert payload["summary"]["new"] == 1
    assert "mode-flip-no-restore" in render_json(result)


def test_suppression_index_len_counts_annotated_lines():
    index = SuppressionIndex(["x = 1  # repro: disable=thread-no-daemon", "y = 2"])
    assert len(index) == 1


def test_analysis_result_ok_property():
    assert AnalysisResult().ok
