"""Project-wide function index and call graph for the flow analyses.

A :class:`Project` is built from the same parsed :class:`Module` objects the
per-module rules consume.  It records every function and method of the
analyzed tree, keyed by a stable qualified name, with the set of simple
callee names that forms the name-based call graph, and each function's
crediting summary (:mod:`repro.lint.flow.summaries`).

Call resolution is by simple name only: a call ``x.compute(...)`` is an edge
to every function named ``compute``.  That over-approximates the real call
graph, which is the safe direction for F502's reachability search.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.lint.framework import Module
from repro.lint.flow.summaries import FunctionSummary, summarize
from repro.lint.rules._helpers import dotted_tail

__all__ = ["FunctionInfo", "Project"]


@dataclass
class FunctionInfo:
    """One function or method, with call-graph edges and its summary."""

    qualname: str
    name: str
    module: str
    path: str
    summary: FunctionSummary
    #: Simple names of everything this function calls (attribute tails and
    #: bare names) — the edges of the name-based call graph.
    callees: Set[str] = field(default_factory=set)


class Project:
    """Function index + name-based call graph over a set of parsed modules."""

    def __init__(self, modules: Iterable[Module]) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        #: function name -> qualnames sharing it (call-graph candidate sets).
        self.functions_by_name: Dict[str, List[str]] = {}
        for module in sorted(modules, key=lambda m: m.module_name):
            if not module.skip_file:
                self._index_body(module, module.tree.body, class_name=None, parent=None)

    def _index_body(
        self,
        module: Module,
        body: Sequence[ast.stmt],
        class_name: Optional[str],
        parent: Optional[str],
    ) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                self._index_body(module, node.body, node.name, parent=None)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = self._index_function(module, node, class_name, parent)
                self._index_body(module, node.body, None, parent=qualname)
            elif isinstance(node, (ast.If, ast.Try, ast.With, ast.For, ast.While)):
                # Conditionally defined helpers still get indexed.
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, ast.stmt):
                        self._index_body(module, [child], class_name, parent)

    def _index_function(
        self,
        module: Module,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        class_name: Optional[str],
        parent: Optional[str],
    ) -> str:
        if class_name:
            qualname = f"{module.module_name}:{class_name}.{node.name}"
        elif parent:
            qualname = f"{parent}.<locals>.{node.name}"
        else:
            qualname = f"{module.module_name}:{node.name}"
        info = FunctionInfo(
            qualname=qualname,
            name=node.name,
            module=module.module_name,
            path=module.path,
            summary=summarize(node),
        )
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                tail = dotted_tail(call.func)
                if tail:
                    info.callees.add(tail)
        self.functions[qualname] = info
        self.functions_by_name.setdefault(node.name, []).append(qualname)
        return qualname

    def candidates(self, name: str) -> Sequence[FunctionInfo]:
        """All functions sharing a simple name (name-based call resolution)."""
        return [self.functions[q] for q in self.functions_by_name.get(name, ())]
