"""Numpy-kernel hygiene rule.

The vectorized kernels (similarity matmuls, batch Viterbi) are oracle-
checked byte-for-byte against scalar implementations, so their dtypes are
spelled out rather than left to inference: int32/int64 or float32/float64
drift between platforms and inputs changes accumulation order and overflow
behaviour.
"""

from __future__ import annotations

import ast
from typing import List, Sequence

from repro.analysis.astutil import call_name, has_keyword
from repro.analysis.registry import Finding, Rule, register

__all__ = ["ImplicitDtype"]

#: modules holding the oracle-checked numeric kernels.
KERNEL_MODULES = ("nn/", "text/similarity")

#: numpy constructors whose dtype must be spelled out inside kernels.
_DTYPE_REQUIRED = frozenset(
    {"array", "zeros", "ones", "empty", "full", "asarray", "arange", "eye"}
)


def _np_call_suffix(node: ast.AST) -> str:
    """``"zeros"`` for ``np.zeros(...)`` / ``numpy.zeros(...)``, else ``""``."""
    callee = call_name(node) if isinstance(node, ast.Call) else None
    if callee is None:
        return ""
    parts = callee.split(".")
    if parts[0] in ("np", "numpy") and len(parts) >= 2:
        return ".".join(parts[1:])
    return ""


@register
class ImplicitDtype(Rule):
    rule_id = "implicit-dtype"
    family = "numpy-kernel"
    summary = "numpy constructor without an explicit dtype in a kernel module"
    rationale = (
        "Inferred dtypes drift (platform int widths, int-vs-float promotion "
        "from input data) and change accumulation/overflow behaviour; the "
        "oracle-checked kernels spell dtype= so equivalence is portable."
    )
    scope = KERNEL_MODULES

    def check(self, tree: ast.Module, lines: Sequence[str], relpath: str) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            suffix = _np_call_suffix(node)
            if suffix in _DTYPE_REQUIRED and not has_keyword(node, "dtype"):
                findings.append(
                    self.finding(node, relpath, f"np.{suffix}(...) without dtype=")
                )
        return findings
