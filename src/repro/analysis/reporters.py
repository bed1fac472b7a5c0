"""Human and JSON reporters over an :class:`AnalysisResult`."""

from __future__ import annotations

import json
from typing import Dict, List

from repro.analysis.engine import AnalysisResult
from repro.analysis.registry import Finding

__all__ = ["render_human", "render_json", "result_payload"]


def _group_by_path(findings: List[Finding]) -> Dict[str, List[Finding]]:
    grouped: Dict[str, List[Finding]] = {}
    for finding in findings:
        grouped.setdefault(finding.path, []).append(finding)
    return grouped


def render_human(result: AnalysisResult) -> str:
    """Findings grouped by file, plus a one-line summary."""
    out: List[str] = []
    for path, findings in sorted(_group_by_path(result.new).items()):
        out.append(path)
        for finding in findings:
            out.append(
                f"  {finding.line}:{finding.col}  {finding.rule_id}  {finding.message}"
            )
    for report in result.errors:
        out.append(f"{report.path}: {report.error}")
    if result.unused_suppressions:
        out.append("unused suppressions (delete the comment or correct its rule id):")
        for finding in result.unused_suppressions:
            out.append(f"  {finding.path}:{finding.line}  {finding.message}")
    per_rule: Dict[str, int] = {}
    for finding in result.new:
        per_rule[finding.rule_id] = per_rule.get(finding.rule_id, 0) + 1
    if per_rule:
        out.append("")
        out.append(
            "new findings by rule: "
            + ", ".join(f"{rule}={count}" for rule, count in sorted(per_rule.items()))
        )
    out.append(
        f"{result.files_scanned} files, {result.rules_run} rules: "
        f"{len(result.new)} new, {len(result.suppressed)} suppressed, "
        f"{len(result.unused_suppressions)} unused suppressions"
        + (f", {len(result.errors)} parse errors" if result.errors else "")
    )
    return "\n".join(out)


def _finding_dict(finding: Finding) -> Dict[str, object]:
    return {
        "path": finding.path,
        "line": finding.line,
        "col": finding.col,
        "rule": finding.rule_id,
        "message": finding.message,
    }


def result_payload(result: AnalysisResult) -> Dict[str, object]:
    """The JSON-serialisable view consumed by the lint guard test."""
    return {
        "ok": result.ok,
        "summary": {
            "files_scanned": result.files_scanned,
            "rules_run": result.rules_run,
            "new": len(result.new),
            "suppressed": len(result.suppressed),
            "unused_suppressions": len(result.unused_suppressions),
            "errors": len(result.errors),
        },
        "new": [_finding_dict(f) for f in result.new],
        "suppressed": [_finding_dict(f) for f in result.suppressed],
        "unused_suppressions": [_finding_dict(f) for f in result.unused_suppressions],
        "errors": [
            {"path": report.path, "error": report.error} for report in result.errors
        ],
    }


def render_json(result: AnalysisResult) -> str:
    return json.dumps(result_payload(result), indent=2, sort_keys=True)
