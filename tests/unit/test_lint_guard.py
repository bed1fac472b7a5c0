"""Tier-1 lint guard: ``repro lint src/`` must stay clean.

Runs the static analyzer over the real ``src/`` tree exactly as CI would
(fresh interpreter, JSON reporter, committed baseline) and fails the suite
on any non-baselined, non-suppressed finding — so a seeded race or
nondeterminism violation in ``src/`` breaks the build, not a prod bench.
"""

import json
import os
import subprocess
import sys

from repro import cli
from repro.analysis import run_analysis

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
BASELINE = os.path.join(REPO_ROOT, "analysis", "baseline.json")


def run_repro_cli(command, *args, cwd=REPO_ROOT):
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", command, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


def run_lint_cli(*args, cwd=REPO_ROOT):
    return run_repro_cli("lint", *args, cwd=cwd)


def test_src_tree_has_no_new_findings():
    completed = run_lint_cli("src", "--format", "json")
    payload = json.loads(completed.stdout)
    assert payload["new"] == [], (
        "non-baselined lint findings in src/ — fix them, suppress with "
        "`# repro: disable=<rule-id>` + justification, or (for accepted "
        "pre-existing debt) run `repro lint src --update-baseline`:\n"
        + json.dumps(payload["new"], indent=2)
    )
    assert payload["errors"] == []
    assert completed.returncode == 0
    # The committed baseline and suppressions are in active use, not stale.
    assert payload["summary"]["files_scanned"] > 90
    assert payload["summary"]["rules_run"] >= 20
    assert payload["stale_baseline"] == [], (
        "baseline entries no longer matched by any finding — run "
        "`repro lint src --prune-baseline`:\n"
        + json.dumps(payload["stale_baseline"], indent=2)
    )


def test_src_lock_graph_is_deadlock_free():
    """Tier-1 guard for the whole-program concurrency pass: the real src/
    tree must have an acyclic lock-order graph and no *unsuppressed* lock
    held across a blocking call (intentional exceptions carry an inline
    justification and show up in the triage as suppressed)."""
    completed = run_repro_cli("locks", "src", "--format", "json")
    payload = json.loads(completed.stdout)
    assert payload["cycles"] == [], (
        "lock-order cycle in src/ — run `repro locks src` for the sites:\n"
        + json.dumps(payload["cycles"], indent=2)
    )
    assert payload["triage"]["new"] == [], (
        "unsuppressed concurrency findings in src/:\n"
        + json.dumps(payload["triage"]["new"], indent=2)
    )
    assert completed.returncode == 0
    # The graph is real: the serving/runtime hierarchy is being analyzed.
    assert payload["summary"]["locks"] >= 15
    assert payload["summary"]["edges"] >= 5
    order = payload["order"]
    assert order.index("serve.sessions.entry") < order.index("serve.runtime.facade")


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
    result = run_analysis(
        [os.path.join(REPO_ROOT, "src"), str(seeded)],
        root=REPO_ROOT,
        baseline_path=BASELINE,
    )
    assert not result.ok
    assert [(f.rule_id, f.line) for f in result.new] == [("unguarded-attr-write", 8)]


def test_cli_exit_code_reflects_findings(tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("def f():\n    return 1\n")
    dirty = tmp_path / "dirty.py"
    dirty.write_text("def f(items=[]):\n    return items\n")
    assert cli.main(["lint", str(clean), "--no-baseline"]) == 0
    assert cli.main(["lint", str(dirty), "--no-baseline"]) == 1


def test_update_baseline_flag_accepts_current_findings(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("def f(items=[]):\n    return items\n")
    baseline = str(tmp_path / "baseline.json")
    # Intentional churn: accept, then the same findings no longer fail.
    assert cli.main(
        ["lint", str(dirty), "--baseline", baseline, "--update-baseline", "--root", str(tmp_path)]
    ) == 0
    capsys.readouterr()
    assert cli.main(["lint", str(dirty), "--baseline", baseline, "--root", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "0 new, 1 baselined" in out
    # Without the baseline the accepted finding is visible again.
    assert cli.main(["lint", str(dirty), "--no-baseline", "--root", str(tmp_path)]) == 1


def _init_git_repo(path):
    def git(*args):
        return subprocess.run(
            ["git", "-c", "user.email=dev@example.com", "-c", "user.name=dev", *args],
            cwd=path,
            capture_output=True,
            text=True,
            check=True,
        )

    git("init", "-q")
    return git


def test_changed_scoping_lints_only_touched_files(tmp_path, monkeypatch, capsys):
    from repro.analysis.engine import changed_files

    git = _init_git_repo(tmp_path)
    clean = tmp_path / "clean.py"
    clean.write_text("def f(items=[]):\n    return items\n")  # committed: ignored
    touched = tmp_path / "touched.py"
    touched.write_text("x = 1\n")
    git("add", ".")
    git("commit", "-qm", "seed")
    touched.write_text("def g(items=[]):\n    return items\n")
    fresh = tmp_path / "fresh.py"
    fresh.write_text("def h(items=[]):\n    return items\n")

    assert changed_files(cwd=str(tmp_path)) == ["fresh.py", "touched.py"]

    monkeypatch.chdir(tmp_path)
    rc = cli.main(["lint", "--changed", "--no-baseline", "--root", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 1
    # Only the modified and untracked files were linted; the committed
    # violation in clean.py stays out of a --changed run.
    assert "touched.py" in out and "fresh.py" in out
    assert "clean.py" not in out


def test_changed_with_no_changes_is_a_clean_noop(tmp_path, monkeypatch, capsys):
    git = _init_git_repo(tmp_path)
    (tmp_path / "module.py").write_text("x = 1\n")
    git("add", ".")
    git("commit", "-qm", "seed")
    monkeypatch.chdir(tmp_path)
    rc = cli.main(["lint", "--changed", "--no-baseline", "--root", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "nothing to lint" in out


def test_changed_outside_git_falls_back_to_full_sweep(tmp_path, monkeypatch, capsys):
    from repro.analysis.engine import changed_files

    assert changed_files(cwd=str(tmp_path)) is None
    dirty = tmp_path / "dirty.py"
    dirty.write_text("def f(items=[]):\n    return items\n")
    monkeypatch.chdir(tmp_path)
    rc = cli.main(
        ["lint", str(dirty), "--changed", "--no-baseline", "--root", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert rc == 1  # the full sweep still linted the requested paths
    assert "falling back to full sweep" in out


def test_prune_baseline_drops_only_stale_entries(tmp_path, capsys):
    from repro.analysis.baseline import load_baseline

    dirty = tmp_path / "dirty.py"
    dirty.write_text(
        "def f(items=[]):\n    return items\n\ndef g(more=[]):\n    return more\n"
    )
    baseline = str(tmp_path / "baseline.json")
    assert cli.main(
        ["lint", str(dirty), "--baseline", baseline, "--update-baseline", "--root", str(tmp_path)]
    ) == 0
    assert len(load_baseline(baseline)) == 2
    # One of the two accepted findings gets fixed; its entry goes stale.
    dirty.write_text(
        "def f(items=None):\n    return items or []\n\ndef g(more=[]):\n    return more\n"
    )
    capsys.readouterr()
    assert cli.main(
        ["lint", str(dirty), "--baseline", baseline, "--prune-baseline", "--root", str(tmp_path)]
    ) == 0
    out = capsys.readouterr().out
    assert "pruned 1 stale entries" in out and "(1 kept)" in out
    assert load_baseline(baseline) == {"dirty.py:mutable-default:4"}
    # After the prune the remaining entry still covers the live finding.
    assert cli.main(
        ["lint", str(dirty), "--baseline", baseline, "--root", str(tmp_path)]
    ) == 0


def test_list_rules_prints_catalogue(capsys):
    assert cli.main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for family in ("lock-discipline", "determinism", "numpy-kernel", "api-hygiene"):
        assert family in out
    assert "unguarded-attr-write" in out
