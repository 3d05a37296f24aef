"""Shared AST helpers for the rule implementations."""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional

__all__ = [
    "CREDITING_CALLS",
    "FASTPATH_INTERNALS",
    "canonical_call",
    "dotted_name",
    "dotted_tail",
    "function_defs",
    "import_aliases",
    "walk_shallow",
]

#: Resource internals whose access from *outside* the owning object marks a
#: fast path: only code that bypasses the evented request/release protocol
#: reaches into another object's slot and waiter lists (rules E301 and F502).
FASTPATH_INTERNALS = frozenset({"users", "_waiters", "_grant", "_pop_waiter"})

#: Calls that satisfy the crediting contract (each either credits elided
#: events directly or is an engine primitive that self-credits).
CREDITING_CALLS = frozenset({"credit_events", "trigger_inplace", "complete"})

#: Statement types that open a new namespace: shallow walks stop here so a
#: nested function's yields/reads are never attributed to its enclosing one.
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an attribute chain rooted at a plain name, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def dotted_tail(node: ast.AST) -> Optional[str]:
    """The last segment of :func:`dotted_name` (``a.b.c`` → ``c``), else ``None``."""
    name = dotted_name(node)
    return name.rsplit(".", 1)[-1] if name else None


def import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the canonical dotted path they import.

    ``import time as t`` maps ``t -> time``; ``from time import perf_counter
    as pc`` maps ``pc -> time.perf_counter``; ``from datetime import
    datetime`` maps ``datetime -> datetime.datetime``.  Used to resolve call
    targets to canonical names regardless of import style.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def canonical_call(node: ast.Call, aliases: Dict[str, str]) -> Optional[str]:
    """The canonical dotted target of a call, resolved through the imports."""
    name = dotted_name(node.func)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    resolved = aliases.get(head)
    if resolved is None:
        return name
    return f"{resolved}.{rest}" if rest else resolved


def walk_shallow(node: ast.AST, include_root: bool = True) -> Iterator[ast.AST]:
    """Walk ``node`` without descending into nested scopes (defs/lambdas)."""
    if include_root:
        yield node
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _SCOPE_NODES):
            continue
        yield from walk_shallow(child)


def function_defs(tree: ast.Module) -> Iterator[ast.FunctionDef]:
    """Every (sync or async) function definition in the module, any depth."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
