"""Rule registry and the finding model for the static-analysis framework.

A *rule* is a small ``ast``-level check with a stable identifier (the token
used in ``# repro: disable=<rule-id>`` comments), a *family* grouping
related invariants, and an optional *scope* restricting it to the modules
where its invariant actually holds (e.g. ``unstable-argsort`` only bites in
tie-breaking ranking paths).

Rules register themselves with :func:`register` at import time; the engine
asks :func:`all_rules` for one fresh instance of each.  Registration is
idempotent by rule id so re-imports (pytest, reload) never double-report.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Type

__all__ = [
    "Finding",
    "Rule",
    "register",
    "all_rules",
    "rules_by_family",
    "get_rule",
]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at an exact source location.

    ``path`` is root-relative with ``/`` separators so reports do not
    depend on the invocation directory; ``line``/``col`` are 1-based line
    and 0-based column straight from the ``ast`` node that triggered the
    rule.
    """

    path: str
    line: int
    col: int
    rule_id: str
    message: str


class Rule:
    """Base class for one static check.

    Subclasses set the class attributes and implement :meth:`check`, which
    receives the parsed module, the raw source lines and the root-relative
    path, and returns findings.  ``scope`` is a tuple of path fragments
    (``"nn/"``, ``"text/similarity"``); empty means repo-wide.  Matching is
    segment-anchored so ``"nn/"`` does not match ``cnn/``.
    """

    rule_id: str = ""
    family: str = ""
    summary: str = ""
    rationale: str = ""
    scope: Tuple[str, ...] = ()

    def applies_to(self, relpath: str) -> bool:
        if not self.scope:
            return True
        anchored = "/" + relpath.replace("\\", "/")
        return any(f"/{fragment}" in anchored for fragment in self.scope)

    def check(self, tree: ast.Module, lines: Sequence[str], relpath: str) -> List["Finding"]:
        raise NotImplementedError

    def finding(self, node: ast.AST, relpath: str, message: str) -> Finding:
        return Finding(
            path=relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=self.rule_id,
            message=message,
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding ``cls`` to the global registry (idempotent)."""
    if not cls.rule_id or not cls.family:
        raise ValueError(f"rule {cls.__name__} must define rule_id and family")
    existing = _REGISTRY.get(cls.rule_id)
    if existing is not None and existing is not cls:
        raise ValueError(f"duplicate rule id {cls.rule_id!r} ({existing.__name__} vs {cls.__name__})")
    _REGISTRY[cls.rule_id] = cls
    return cls


def _ensure_loaded() -> None:
    # Import the rule modules for their registration side effects.
    from repro.analysis import rules  # noqa: F401


def all_rules() -> List[Rule]:
    """One instance of every registered rule, sorted by (family, id)."""
    _ensure_loaded()
    return [
        _REGISTRY[rule_id]()
        for rule_id in sorted(_REGISTRY, key=lambda r: (_REGISTRY[r].family, r))
    ]


def rules_by_family() -> Dict[str, List[Rule]]:
    grouped: Dict[str, List[Rule]] = {}
    for rule in all_rules():
        grouped.setdefault(rule.family, []).append(rule)
    return grouped


def get_rule(rule_id: str) -> Rule:
    _ensure_loaded()
    try:
        return _REGISTRY[rule_id]()
    except KeyError:
        raise KeyError(f"unknown rule id {rule_id!r}; known: {sorted(_REGISTRY)}") from None
