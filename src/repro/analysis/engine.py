"""The analysis engine: file discovery, rule dispatch, triage.

One :func:`run_analysis` call walks the requested paths, parses each
``.py`` file once and lets every in-scope rule visit its tree.  Findings
triage two ways:

* **suppressed** — an inline ``# repro: disable=<rule-id>`` covers the line;
* **new** — everything else; these fail the lint guard.

The run also audits the suppressions themselves: a directive that covers
no finding (its code was fixed or moved, or it names no known rule) is
reported as an **unused suppression** and fails the run too, so a finding
is always either fixed or silenced by a comment that still applies.

Paths inside findings are relative to ``root`` (posix separators) so the
report reads the same regardless of where the analyzer is invoked from.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Set

from repro.analysis.registry import Finding, Rule, all_rules
from repro.analysis.suppressions import SuppressionIndex

__all__ = [
    "AnalysisResult",
    "FileReport",
    "run_analysis",
    "iter_python_files",
    "analyze_source",
]

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache", "node_modules"}


@dataclass
class FileReport:
    """Triaged output for one file."""

    path: str
    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    unused: List[Finding] = field(default_factory=list)
    error: Optional[str] = None


@dataclass
class AnalysisResult:
    """Triaged output of one analyzer run."""

    new: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    unused_suppressions: List[Finding] = field(default_factory=list)
    errors: List[FileReport] = field(default_factory=list)
    files_scanned: int = 0
    rules_run: int = 0

    @property
    def ok(self) -> bool:
        """True when nothing new was found and every suppression is used."""
        return not self.new and not self.unused_suppressions and not self.errors


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Every ``.py`` file under ``paths`` (files pass through), sorted."""
    seen: Set[str] = set()
    collected: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            candidates = [path] if path.endswith(".py") else []
        else:
            candidates = []
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames if d not in _SKIP_DIRS)
                candidates.extend(
                    os.path.join(dirpath, name)
                    for name in sorted(filenames)
                    if name.endswith(".py")
                )
        for candidate in candidates:
            resolved = os.path.abspath(candidate)
            if resolved not in seen:
                seen.add(resolved)
                collected.append(candidate)
    return iter(sorted(collected))


def _relpath(path: str, root: str) -> str:
    absolute = os.path.abspath(path)
    relative = os.path.relpath(absolute, root)
    if relative.startswith(".."):
        # Outside the root: keep the absolute path rather than a ../ chain
        # that would make reported paths depend on the invocation directory.
        relative = absolute
    return relative.replace(os.sep, "/")


def _audited(rule_id: str, active: Set[str], known: Set[str]) -> bool:
    """Whether this run can judge a directive naming ``rule_id`` unused.

    A run restricted to some rules cannot tell whether a directive for a
    rule it skipped still covers a finding; unknown ids never can.
    """
    if rule_id == "all":
        return active >= known
    return rule_id in active or rule_id not in known


def analyze_source(
    source: str, relpath: str, rules: Optional[Sequence[Rule]] = None
) -> FileReport:
    """Run the rule set over one in-memory module and triage its findings."""
    rules = list(rules) if rules is not None else all_rules()
    report = FileReport(path=relpath)
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as exc:
        report.error = f"syntax error: {exc.msg} (line {exc.lineno})"
        return report
    lines = source.splitlines()
    suppressions = SuppressionIndex(lines, tree=tree)
    raw: List[Finding] = []
    for rule in rules:
        if rule.applies_to(relpath):
            raw.extend(rule.check(tree, lines, relpath))
    for finding in sorted(raw):
        if suppressions.is_suppressed(finding):
            report.suppressed.append(finding)
        else:
            report.findings.append(finding)
    active = {rule.rule_id for rule in rules}
    known = {rule.rule_id for rule in all_rules()}
    for line, rule_id in suppressions.unused():
        if not _audited(rule_id, active, known):
            continue
        if rule_id == "all" or rule_id in known:
            message = f"disable={rule_id} covers no finding"
        else:
            message = f"disable={rule_id} names no known rule"
        report.unused.append(
            Finding(path=relpath, line=line, col=0, rule_id=rule_id, message=message)
        )
    return report


def run_analysis(paths: Sequence[str], root: Optional[str] = None) -> AnalysisResult:
    """Analyze every Python file under ``paths`` with every registered rule."""
    root = os.path.abspath(root or os.getcwd())
    rules = all_rules()
    result = AnalysisResult(rules_run=len(rules))
    for path in iter_python_files(paths):
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        result.files_scanned += 1
        report = analyze_source(source, _relpath(path, root), rules)
        if report.error is not None:
            result.errors.append(report)
            continue
        result.new.extend(report.findings)
        result.suppressed.extend(report.suppressed)
        result.unused_suppressions.extend(report.unused)
    return result
