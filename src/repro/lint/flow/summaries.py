"""Per-function crediting summaries for rule F502.

Each function's summary records the fast-path shape E301 looks at, in
machine-readable form: where it touches another object's fast-path
internals, which crediting calls it makes (literal ``credit_events(<int>)``
amounts, dynamically computed credits, self-crediting engine primitives),
and how many queue trips it elides — one per foreign ``users.append`` /
``users.remove``, each standing for a grant or release event the slow path
would have scheduled.  The internals and crediting calls are E301's own
sets, so F502 stays a strict interprocedural upgrade of the per-function
rule.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import List

from repro.lint.rules._helpers import (
    CREDITING_CALLS,
    FASTPATH_INTERNALS,
    dotted_tail,
    walk_shallow,
)

__all__ = ["FunctionSummary", "summarize"]


@dataclass
class FunctionSummary:
    """The crediting shape of one function."""

    credit_literals: List[int] = field(default_factory=list)
    dynamic_credit: bool = False
    credits_inplace: bool = False
    foreign_touch_lines: List[int] = field(default_factory=list)
    elide_count: int = 0

    @property
    def credits_local(self) -> bool:
        """Whether this function itself contains any crediting evidence."""
        return bool(self.credit_literals) or self.dynamic_credit or self.credits_inplace


def _is_self(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def summarize(node: ast.AST) -> FunctionSummary:
    """Summarize one function body (nested scopes belong to their own entry)."""
    summary = FunctionSummary()
    for leaf in walk_shallow(node):
        if isinstance(leaf, ast.Attribute):
            if leaf.attr in FASTPATH_INTERNALS and not _is_self(leaf.value):
                summary.foreign_touch_lines.append(leaf.lineno)
        if not isinstance(leaf, ast.Call):
            continue
        tail = dotted_tail(leaf.func)
        if tail == "credit_events":
            if (
                len(leaf.args) == 1
                and isinstance(leaf.args[0], ast.Constant)
                and isinstance(leaf.args[0].value, int)
            ):
                summary.credit_literals.append(leaf.args[0].value)
            else:
                summary.dynamic_credit = True
        elif tail in CREDITING_CALLS:
            summary.credits_inplace = True
        func = leaf.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("append", "remove")
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "users"
            and not _is_self(func.value.value)
        ):
            summary.elide_count += 1
    return summary
