"""Persistence rules.

Snapshots and benchmark records are read back by later runs — by the
serving warm-start path, the benchmark compare step, CI.  A writer that
dies mid-``write()`` (or races a reader) must never leave a torn file where a
valid one stood, so every durable write goes through the temp-file +
``os.replace`` idiom: write the full payload to a sibling temp path, then
atomically rename over the destination.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence, Set

from repro.analysis.astutil import call_name
from repro.analysis.registry import Finding, Rule, register

__all__ = ["AtomicFileWrite"]

_SAVEZ_CALLS = frozenset(
    {"np.savez", "np.savez_compressed", "numpy.savez", "numpy.savez_compressed"}
)
_WRITE_METHODS = frozenset({"write_text", "write_bytes"})
#: open() modes that create or truncate — reads never tear a file.
_DURABLE_MODES = ("w", "a", "x")


def _durable_mode(node: ast.Call) -> bool:
    """Whether an ``open``/``.open`` call uses a writing mode."""
    candidates: List[ast.expr] = list(node.args)
    candidates.extend(kw.value for kw in node.keywords if kw.arg == "mode")
    for arg in candidates:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            if arg.value.startswith(_DURABLE_MODES):
                return True
    return False


def _write_call(node: ast.Call) -> Optional[str]:
    """A short description if ``node`` durably writes a file, else None."""
    callee = call_name(node.func)
    if callee in _SAVEZ_CALLS:
        return f"{callee}() writes the archive in place"
    if isinstance(node.func, ast.Attribute):
        if node.func.attr in _WRITE_METHODS:
            return f".{node.func.attr}() writes the file in place"
        if node.func.attr == "open" and _durable_mode(node):
            return ".open() in a writing mode"
    elif callee == "open" and _durable_mode(node):
        return "open() in a writing mode"
    return None


def _replaces(node: ast.Call) -> bool:
    """Whether ``node`` is the atomic-rename half of the idiom.

    ``os.replace(tmp, path)``, the one-argument ``Path.replace(path)``
    method (``str.replace`` takes two, so the arity disambiguates), or a
    delegation to a helper named after the idiom (``_write_atomic``).
    """
    callee = call_name(node.func)
    if callee in ("os.replace", "os.rename"):
        return True
    if callee is not None and "atomic" in callee.lower():
        return True
    if (
        isinstance(node.func, ast.Attribute)
        and node.func.attr == "replace"
        and len(node.args) == 1
        and not node.keywords
    ):
        return True
    return False


@register
class AtomicFileWrite(Rule):
    rule_id = "atomic-file-write"
    family = "persistence"
    summary = "durable file write without the temp + os.replace idiom"
    rationale = (
        "A reader (warm start, benchmark compare) that opens a "
        "file mid-write sees a torn payload; a writer killed mid-write "
        "leaves one behind forever.  Write the bytes to a sibling temp "
        "path and os.replace() it over the destination — rename is atomic "
        "on POSIX, so the file is always either the old version or the new."
    )

    def check(self, tree: ast.Module, lines: Sequence[str], relpath: str) -> List[Finding]:
        findings: List[Finding] = []
        reported: Set[int] = set()
        scopes: List[ast.AST] = [
            node
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        scopes.append(tree)
        covered: Set[int] = set()
        for scope in scopes:
            if scope is tree:
                # Module scope: only statements outside every function.
                nodes = [n for n in ast.walk(tree) if id(n) not in covered]
            else:
                nodes = list(ast.walk(scope))
                covered.update(id(n) for n in nodes)
            writes = []
            atomic = False
            for node in nodes:
                if not isinstance(node, ast.Call):
                    continue
                description = _write_call(node)
                if description is not None:
                    writes.append((node, description))
                elif _replaces(node):
                    atomic = True
            if atomic:
                continue
            for node, description in writes:
                if id(node) in reported:
                    continue
                reported.add(id(node))
                findings.append(
                    self.finding(
                        node, relpath, f"{description} without os.replace()"
                    )
                )
        return findings
