"""API-hygiene rule.

Mode flips (``.eval()`` / ``.train()`` / ``self.training = ...``) whose
restore is not protected by ``try/finally`` leave a model stuck in the
wrong mode when the work in between raises — the exact bug class fixed by
hand in ``SequenceTagger.predict``.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence, Tuple

from repro.analysis.astutil import dotted_name
from repro.analysis.registry import Finding, Rule, register

__all__ = ["ModeFlipNoRestore"]


def _mode_flip(node: ast.AST) -> Optional[Tuple[str, str]]:
    """(receiver, description) when ``node`` flips a train/eval mode.

    Matches ``X.eval()``, ``X.train(...)`` and ``X.training = <expr>``.
    """
    if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
        callee = dotted_name(node.value.func)
        if callee is not None:
            parts = callee.split(".")
            if len(parts) >= 2 and parts[-1] in ("eval", "train"):
                return ".".join(parts[:-1]), f"{callee}()"
    if isinstance(node, ast.Assign):
        for target in node.targets:
            name = dotted_name(target)
            if name is not None and name.endswith(".training"):
                return name.rsplit(".", 1)[0], f"{name} = ..."
    return None


@register
class ModeFlipNoRestore(Rule):
    rule_id = "mode-flip-no-restore"
    family = "api-hygiene"
    summary = "train/eval mode flipped and restored without try/finally"
    rationale = (
        "If the work between `model.eval()` and the restoring `model.train()` "
        "raises, the model is silently stuck in the wrong mode (dropout off "
        "for the rest of training).  The restore must live in a finally:."
    )

    def check(self, tree: ast.Module, lines: Sequence[str], relpath: str) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            # Flips at the function's statement level (not inside try/finally).
            top_flips: List[Tuple[ast.AST, str, str]] = []
            for statement in node.body:
                flip = _mode_flip(statement)
                if flip is not None:
                    top_flips.append((statement, flip[0], flip[1]))
            if len(top_flips) < 2:
                continue
            # Same receiver flipped twice outside any finally → first flip's
            # restore is not exception-safe.
            seen = {}
            for statement, receiver, description in top_flips:
                if receiver in seen:
                    findings.append(
                        self.finding(
                            seen[receiver][0],
                            relpath,
                            f"{seen[receiver][1]} restored by {description} "
                            "without try/finally",
                        )
                    )
                    break
                seen[receiver] = (statement, description)
        return findings
