"""Metric-name hygiene rule.

Metric names are a *schema*, not data: dashboards, the SLO specs and the
``repro top`` tables all address series by name, and the registry keeps
every name it has ever seen.  A dynamically built name
(``metrics.incr(f"user.{user_id}")``) therefore does two bad things at
once — it grows registry memory without bound under adversarial input,
and it produces series no dashboard knows to look for.  The rule forces
every ``incr``/``observe``/``time`` call on a metrics registry to receive
either a string literal or a reference through a module-level constant
(``UPPER_CASE`` name, attribute or constant-map subscript like
``ROUTE_COUNTERS[route]``), so the full metric vocabulary is enumerable
from the source.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence

from repro.analysis.astutil import call_name
from repro.analysis.registry import Finding, Rule, register

__all__ = ["MetricNameLiteral"]

#: recording methods on the registry whose first argument names a series.
_RECORDERS = frozenset({"incr", "observe", "time"})

#: receiver spellings that identify a metrics registry at a call site.
_RECEIVERS = frozenset({"metrics", "_metrics", "registry"})


def _is_constant_ref(node: ast.AST) -> bool:
    """A read of a module-level constant by naming convention.

    Accepts ``CONSTANT``, ``module.CONSTANT`` and constant-map lookups
    (``CONSTANT[...]``) — the closed-set patterns that keep the metric
    vocabulary enumerable even when the exact series is picked at runtime.
    """
    if isinstance(node, ast.Name):
        return node.id.isupper()
    if isinstance(node, ast.Attribute):
        return node.attr.isupper()
    if isinstance(node, ast.Subscript):
        return _is_constant_ref(node.value)
    return False


def _metric_name_arg(call: ast.Call) -> Optional[ast.AST]:
    if call.args:
        return call.args[0]
    for keyword in call.keywords:
        if keyword.arg == "name":
            return keyword.value
    return None


@register
class MetricNameLiteral(Rule):
    rule_id = "metric-name-literal"
    family = "observability"
    summary = "dynamically built metric name at a registry call site"
    rationale = (
        "metrics.incr/observe/time must receive a string literal or a "
        "module-level constant: names built from runtime values create "
        "unbounded metric cardinality (registry memory grows with input) "
        "and series that no dashboard, SLO spec or benchmark addresses.  "
        "Enumerate the closed set in an UPPER_CASE constant and index it."
    )

    def check(self, tree: ast.Module, lines: Sequence[str], relpath: str) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee = call_name(node.func)
            if callee is None:
                continue
            parts = callee.split(".")
            if len(parts) < 2 or parts[-1] not in _RECORDERS:
                continue
            if parts[-2] not in _RECEIVERS:
                continue
            arg = _metric_name_arg(node)
            if arg is None:
                continue  # zero-arg call: not this registry's signature
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                continue
            if _is_constant_ref(arg):
                continue
            shape = type(arg).__name__
            findings.append(
                self.finding(
                    node,
                    relpath,
                    f"{callee}() metric name is a {shape}, not a string "
                    "literal or module-level constant — unbounded metric "
                    "cardinality",
                )
            )
        return findings
