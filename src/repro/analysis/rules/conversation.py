"""Conversation-stage determinism rule.

The conversation stage (``repro/conversation/``) promises that a transcript
fully determines every routing, coreference and rewrite decision — the
stage on/off equivalence tests and the serve-vs-sequential session tests
both rely on it.  Unlike the ranking modules (where only scoring paths are
clock-sensitive), *nothing* in the conversation package may read the
wall clock or draw from process-global RNG state: salience recency is
turn-indexed, not time-indexed, and any randomness must arrive as an
explicitly seeded generator.
"""

from __future__ import annotations

import ast
from typing import List, Sequence

from repro.analysis.astutil import call_name
from repro.analysis.registry import Finding, Rule, register
from repro.analysis.rules.determinism import (
    _GLOBAL_RANDOM_FNS,
    _NP_RANDOM_ALLOWED,
    _WALLCLOCK_CALLS,
)

__all__ = ["ConversationDeterminism"]


@register
class ConversationDeterminism(Rule):
    rule_id = "conversation-determinism"
    family = "determinism"
    summary = "wall-clock or global-RNG use inside the conversation stage"
    rationale = (
        "repro.conversation guarantees transcript-determinism: routing, "
        "coreference and topic-shift decisions must be pure functions of "
        "the utterance sequence.  Clock reads or global RNG draws break the "
        "stage-on/stage-off equivalence oracle; inject a clock or pass a "
        "seeded np.random.Generator instead."
    )
    scope = ("conversation/",)

    def check(self, tree: ast.Module, lines: Sequence[str], relpath: str) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee = call_name(node.func)
            if callee is None:
                continue
            if callee in _WALLCLOCK_CALLS:
                findings.append(
                    self.finding(
                        node,
                        relpath,
                        f"{callee}() reads the wall clock inside the conversation stage",
                    )
                )
                continue
            parts = callee.split(".")
            if parts[0] == "random" and len(parts) == 2 and parts[1] in _GLOBAL_RANDOM_FNS:
                findings.append(
                    self.finding(
                        node,
                        relpath,
                        f"{callee}() draws global RNG inside the conversation stage",
                    )
                )
            elif (
                len(parts) == 3
                and parts[0] in ("np", "numpy")
                and parts[1] == "random"
                and parts[2] not in _NP_RANDOM_ALLOWED
            ):
                findings.append(
                    self.finding(
                        node,
                        relpath,
                        f"{callee}() draws numpy global RNG inside the conversation stage",
                    )
                )
        return findings
