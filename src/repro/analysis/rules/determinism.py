"""Determinism rule.

Rankings in a subjective search engine are only auditable if they are
reproducible: the same corpus, index generation and query must produce the
same bytes.  ``np.argsort`` defaults to an unstable sort, so in the modules
where argsort order breaks ties between equal scores it must say
``kind="stable"`` (or carry a suppression explaining why ties cannot reach
the output).
"""

from __future__ import annotations

import ast
from typing import List, Sequence

from repro.analysis.astutil import call_name
from repro.analysis.registry import Finding, Rule, register

__all__ = ["UnstableArgsort"]

#: modules where argsort order breaks ties between equal scores.
TIE_BREAK_MODULES = ("core/", "ir/", "nn/crf", "text/similarity")

_STABLE_KINDS = frozenset({"stable", "mergesort"})


@register
class UnstableArgsort(Rule):
    rule_id = "unstable-argsort"
    family = "determinism"
    summary = "argsort without kind='stable' in a tie-breaking path"
    rationale = (
        "np.argsort defaults to an unstable introsort: equal scores land in "
        "arbitrary order, so tied entities can swap ranks between runs.  "
        "Tie-breaking paths must pass kind='stable' (or justify why ties "
        "cannot reach the output) to keep rankings byte-reproducible."
    )
    scope = TIE_BREAK_MODULES

    def check(self, tree: ast.Module, lines: Sequence[str], relpath: str) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee = call_name(node.func)
            is_np = callee in ("np.argsort", "numpy.argsort")
            is_method = (
                isinstance(node.func, ast.Attribute) and node.func.attr == "argsort"
            )
            if not (is_np or is_method):
                continue
            kind = next((kw.value for kw in node.keywords if kw.arg == "kind"), None)
            if kind is None:
                findings.append(
                    self.finding(node, relpath, "argsort without kind='stable'")
                )
            elif not (
                isinstance(kind, ast.Constant) and kind.value in _STABLE_KINDS
            ):
                findings.append(
                    self.finding(node, relpath, "argsort with an unstable kind")
                )
        return findings
