"""Inline suppression comments: ``# repro: disable=<rule-id>[,<rule-id>...]``.

A suppression on the same line as a finding silences it; a *comment-only*
line silences the next code line (for statements too long to annotate
inline).  ``disable=all`` silences every rule on that line.  Suppressions
are deliberately line-scoped — block- or file-level escapes would let a
whole module drift out from under an invariant.

Every directive must earn its place: the index records which (comment line,
rule id) pairs silenced a finding, and :meth:`SuppressionIndex.unused`
returns the rest so the engine can report them as errors.  A suppression
left behind after its finding was fixed, or one naming a rule that does not
exist, fails the lint run.

When the parsed tree is available the index additionally understands two
shapes where "the next code line" and "the line the finding anchors to"
disagree:

* **decorated definitions** — findings on a ``def``/``class`` anchor at the
  keyword line, but a comment-block suppression above the definition lands
  on the first *decorator* line.  The span from the first decorator through
  the end of the signature forwards onto the anchor.
* **multi-line statements** — a suppression on any physical line of a
  simple statement (a continuation argument, the closing paren) covers the
  statement's anchor line.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.registry import Finding

__all__ = ["SuppressionIndex", "SUPPRESSION_PATTERN"]

SUPPRESSION_PATTERN = re.compile(r"#\s*repro:\s*disable=([A-Za-z0-9_,\s\-]+)")
_COMMENT_ONLY = re.compile(r"^\s*#")

#: One directive: the line its comment sits on and the rule id it names.
Directive = Tuple[int, str]

#: Compound statements whose body lines must NOT forward suppressions onto
#: the header — only the header span itself (decorators + signature) does.
_COMPOUND = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
    ast.If,
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.With,
    ast.AsyncWith,
    ast.Try,
)


class SuppressionIndex:
    """Per-file map of line number → directives that cover that line."""

    def __init__(self, lines: Sequence[str], tree: Optional[ast.Module] = None):
        self._by_line: Dict[int, Set[Directive]] = {}
        self._directives: Set[Directive] = set()
        self._used: Set[Directive] = set()
        for lineno, text in enumerate(lines, start=1):
            match = SUPPRESSION_PATTERN.search(text)
            if not match:
                continue
            directives = {
                (lineno, part.strip()) for part in match.group(1).split(",") if part.strip()
            }
            self._directives.update(directives)
            self._add(lineno, directives)
            if _COMMENT_ONLY.match(text):
                # A standalone suppression covers the first code line below
                # it, skipping the rest of its comment block (justifications
                # may continue on following comment lines).
                target = lineno + 1
                while target <= len(lines) and _COMMENT_ONLY.match(lines[target - 1]):
                    target += 1
                self._add(target, directives)
        if tree is not None and self._by_line:
            self._attach_statement_spans(tree)

    def _add(self, lineno: int, directives: Set[Directive]) -> None:
        self._by_line.setdefault(lineno, set()).update(directives)

    # ---------------------------------------------------------------- spans

    def _attach_statement_spans(self, tree: ast.Module) -> None:
        """Forward span-covered suppressions onto each statement's anchor."""
        for node in ast.walk(tree):
            if not isinstance(node, ast.stmt):
                continue
            anchor = node.lineno
            start = anchor
            end = anchor
            decorators = getattr(node, "decorator_list", None)
            if decorators:
                start = min(d.lineno for d in decorators)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                # Signature lines only — the body may hold comment-block
                # suppressions aimed at its own first statement, which must
                # not leak onto the def line.
                end = self._signature_end(node)
            elif not isinstance(node, _COMPOUND):
                end = getattr(node, "end_lineno", None) or anchor
            if start == anchor and end == anchor:
                continue
            gathered: Set[Directive] = set()
            for line in range(start, end + 1):
                if line == anchor:
                    continue
                gathered.update(self._by_line.get(line, ()))
            if gathered:
                self._add(anchor, gathered)

    @staticmethod
    def _signature_end(node: ast.stmt) -> int:
        end = node.lineno
        args = getattr(node, "args", None)
        if args is not None and getattr(args, "end_lineno", None):
            end = max(end, args.end_lineno)
        returns = getattr(node, "returns", None)
        if returns is not None and getattr(returns, "end_lineno", None):
            end = max(end, returns.end_lineno)
        if isinstance(node, ast.ClassDef):
            for base in list(node.bases) + [kw.value for kw in node.keywords]:
                if getattr(base, "end_lineno", None):
                    end = max(end, base.end_lineno)
        return end

    # --------------------------------------------------------------- lookup

    def is_suppressed(self, finding: Finding) -> bool:
        """Whether a directive covers ``finding``; marks that directive used."""
        hits = {
            directive
            for directive in self._by_line.get(finding.line, ())
            if directive[1] in ("all", finding.rule_id)
        }
        self._used.update(hits)
        return bool(hits)

    def unused(self) -> List[Directive]:
        """Directives that have not silenced any finding so far, sorted."""
        return sorted(self._directives - self._used)

    def __len__(self) -> int:
        return len(self._by_line)
