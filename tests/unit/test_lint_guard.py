"""Tier-1 lint guard: ``repro lint src/`` must stay clean.

Runs the static analyzer over the real ``src/`` tree exactly as CI would
(fresh interpreter, JSON reporter) and fails the suite on any unsuppressed
finding or any suppression that no longer covers a finding — so a seeded
race or nondeterminism violation in ``src/`` breaks the build, not a prod
bench.
"""

import json
import os
import subprocess
import sys

from repro import cli
from repro.analysis import run_analysis

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))

KEPT_RULES = [
    "atomic-file-write",
    "check-then-act",
    "implicit-dtype",
    "lock-factory",
    "metric-name-literal",
    "mode-flip-no-restore",
    "thread-no-daemon",
    "unguarded-attr-write",
    "unstable-argsort",
]


def run_lint_cli(*args, cwd=REPO_ROOT):
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


def test_src_tree_has_no_new_findings():
    completed = run_lint_cli("src", "--format", "json")
    payload = json.loads(completed.stdout)
    assert payload["new"] == [], (
        "lint findings in src/ — fix them, or suppress with "
        "`# repro: disable=<rule-id>` + justification:\n"
        + json.dumps(payload["new"], indent=2)
    )
    assert payload["unused_suppressions"] == [], (
        "suppressions in src/ that cover no finding — delete them:\n"
        + json.dumps(payload["unused_suppressions"], indent=2)
    )
    assert payload["errors"] == []
    assert completed.returncode == 0
    assert payload["summary"]["files_scanned"] > 90
    assert payload["summary"]["rules_run"] == len(KEPT_RULES)
    # The suppressions in src/ are in active use, one per reviewed exception.
    assert payload["summary"]["suppressed"] > 0


def test_list_rules_prints_catalogue(capsys):
    assert cli.main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    listed = sorted(line.split()[0] for line in out.splitlines() if line.startswith("  "))
    assert listed == KEPT_RULES
    for family in ("lock-discipline", "determinism", "numpy-kernel", "api-hygiene"):
        assert family in out


def test_seeded_violation_is_caught(tmp_path):
    seeded = tmp_path / "seeded.py"
    seeded.write_text(
        "import threading\n"
        "\n"
        "class Store:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._items = []\n"
        "    def put(self, item):\n"
        "        self._items.append(item)\n"
    )
    result = run_analysis([str(seeded)], root=str(tmp_path))
    assert not result.ok
    assert [(f.rule_id, f.line) for f in result.new] == [("unguarded-attr-write", 8)]


def test_cli_exit_code_reflects_findings(tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("def f():\n    return 1\n")
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import threading\nworker = threading.Thread(target=print)\n")
    assert cli.main(["lint", str(clean)]) == 0
    assert cli.main(["lint", str(dirty)]) == 1


def test_cli_exit_code_reflects_unused_suppressions(tmp_path, capsys):
    stale = tmp_path / "stale.py"
    stale.write_text("x = 1  # repro: disable=thread-no-daemon\n")
    assert cli.main(["lint", str(stale), "--root", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "stale.py:1  disable=thread-no-daemon covers no finding" in out
    assert "1 unused suppressions" in out
