"""Machine-readable flow certificate: ``python -m repro.lint --flow-report``.

Emits one JSON document listing, per fast-path function outside the engine
(every function that touches another object's fast-path internals), the
crediting shape F502 checked: the elided mutations, the literal credits and
whether a dynamically computed credit is present.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Sequence

from repro.lint.framework import (
    MODEL_PACKAGES,
    Module,
    iter_python_files,
    module_name_for,
)
from repro.lint.flow.project import Project

__all__ = ["build_project", "flow_report"]


def build_project(paths: Sequence[Path]) -> Project:
    """Parse every in-scope module under ``paths`` into a project."""
    modules: List[Module] = []
    for file in iter_python_files(paths):
        try:
            module = Module(
                str(file), file.read_text(encoding="utf-8"), module_name_for(file)
            )
        except SyntaxError:
            continue
        if module.in_packages(MODEL_PACKAGES):
            modules.append(module)
    return Project(modules)


def flow_report(paths: Sequence[Path]) -> Dict[str, object]:
    """The JSON-safe flow certificate for the tree under ``paths``."""
    project = build_project(paths)
    crediting: List[Dict[str, object]] = []
    for qualname in sorted(project.functions):
        func = project.functions[qualname]
        summary = func.summary
        if not summary.foreign_touch_lines or func.module.startswith("repro.simcore"):
            continue
        crediting.append(
            {
                "function": func.qualname,
                "path": func.path,
                "line": min(summary.foreign_touch_lines),
                "elided": summary.elide_count,
                "literal_credits": sorted(summary.credit_literals),
                "dynamic_credit": summary.dynamic_credit,
            }
        )
    return {"crediting": crediting}
