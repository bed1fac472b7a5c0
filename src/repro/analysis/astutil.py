"""Small ``ast`` helpers shared by the rule implementations.

These keep the rules themselves short: dotted-name resolution for call
targets (``np.random.default_rng`` → ``"np.random.default_rng"``), the
``self._attr`` store/read patterns the lock rules reason about, and a
"which lock attributes does this class own" scan.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

__all__ = [
    "dotted_name",
    "call_name",
    "has_keyword",
    "self_attr_target",
    "owned_lock_attrs",
    "iter_methods",
    "MUTATOR_METHODS",
]

#: container methods that mutate their receiver in place — calling one of
#: these on a shared attribute is a write for lock-discipline purposes.
MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "clear", "add",
        "discard", "update", "setdefault", "popitem", "move_to_end",
        "appendleft", "popleft", "sort", "reverse", "fill",
    }
)

_LOCK_FACTORIES = frozenset(
    {
        "Lock",
        "RLock",
        "Condition",
        "Semaphore",
        "BoundedSemaphore",
        # repro.utils.locks factory names — lock-discipline rules must keep
        # recognising locks created through the witness-aware factories.
        "make_lock",
        "TrackedLock",
    }
)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for Attribute/Name chains, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.AST) -> Optional[str]:
    """The dotted name of a call's callee (accepts the Call or its func)."""
    if isinstance(node, ast.Call):
        node = node.func
    return dotted_name(node)


def has_keyword(call: ast.Call, name: str) -> bool:
    return any(kw.arg == name for kw in call.keywords)


def self_attr_target(node: ast.AST) -> Optional[str]:
    """The attribute name when ``node`` stores into ``self.<attr>``.

    Covers plain stores (``self._x = ...``), subscript stores on the
    attribute (``self._x[k] = ...``) and attribute deletion targets.
    """
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        if node.value.id == "self":
            return node.attr
        return None
    if isinstance(node, ast.Subscript):
        return self_attr_target(node.value)
    if isinstance(node, (ast.Tuple, ast.List)):
        for element in node.elts:
            found = self_attr_target(element)
            if found is not None:
                return found
    return None


def owned_lock_attrs(class_node: ast.ClassDef) -> Set[str]:
    """Attribute names assigned a ``threading.Lock()``-like value in the class.

    Looks for ``self.X = threading.Lock()`` (or ``RLock``/bare imported
    ``Lock``) anywhere in the class body — usually ``__init__``.
    """
    locks: Set[str] = set()
    for node in ast.walk(class_node):
        if not isinstance(node, ast.Assign):
            continue
        callee = call_name(node.value)
        if callee is None or callee.split(".")[-1] not in _LOCK_FACTORIES:
            continue
        for target in node.targets:
            attr = self_attr_target(target)
            if attr is not None:
                locks.add(attr)
    return locks


def iter_methods(class_node: ast.ClassDef) -> Iterator[ast.FunctionDef]:
    for node in class_node.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
