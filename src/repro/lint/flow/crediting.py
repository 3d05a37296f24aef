"""Rule F502: interprocedural crediting conservation for fast paths.

E301 checks one function at a time: touching another object's fast-path
internals (``users``, ``_waiters``, ``_grant``, ``_pop_waiter``) without a
crediting call in the *same* function is a finding.  That forces every fast
path to credit locally — but it cannot see a fast path split across
helpers, and it cannot check the *amount* credited.

F502 closes both gaps over the whole-program call graph:

* **reachability** — a function touching foreign fast-path internals is
  discharged if a crediting call (``credit_events`` / ``trigger_inplace`` /
  ``complete``) appears in the function itself or in any function reachable
  within a few name-call-graph hops (callers or callees — the credit may
  live in the orchestrating caller or in a shared helper);
* **conservation** — when a function's crediting is a literal
  ``credit_events(<int>)``, the literals must sum to the number of elided
  queue trips, counted as the foreign ``users.append`` / ``users.remove``
  mutations in the function (each stands for one grant or release event the
  slow path would have scheduled).  Dynamically computed credits (e.g.
  ``compute_batch`` folding a whole segment) are exempt from the literal
  check — the runtime sanitizer validates those instead.

Like E301 the rule applies to the model packages *outside* ``repro.simcore``
(the engine's own resource layer maintains those lists as its normal job).
"""

from __future__ import annotations

from typing import Iterator, List, Set

from repro.lint.framework import MODEL_PACKAGES, Finding, ProjectRule, register
from repro.lint.flow.project import FunctionInfo, Project

__all__ = ["CreditingConservation"]

#: Name-call-graph radius searched for a discharging crediting call.
_DISCHARGE_DEPTH = 3


def _discharged(project: Project, func: FunctionInfo) -> bool:
    """Breadth-first search for crediting evidence near ``func``."""
    if func.summary.credits_local:
        return True
    seen: Set[str] = {func.qualname}
    frontier: List[FunctionInfo] = [func]
    for _ in range(_DISCHARGE_DEPTH):
        neighbours: List[FunctionInfo] = []
        for current in frontier:
            # Callees: functions this one names.
            for name in sorted(current.callees):
                for callee in project.candidates(name):
                    if callee.qualname not in seen:
                        seen.add(callee.qualname)
                        neighbours.append(callee)
            # Callers: functions naming this one.
            for qualname in sorted(project.functions):
                caller = project.functions[qualname]
                if caller.qualname not in seen and current.name in caller.callees:
                    seen.add(caller.qualname)
                    neighbours.append(caller)
        if any(n.summary.credits_local for n in neighbours):
            return True
        if not neighbours:
            return False
        frontier = neighbours
    return False


@register
class CreditingConservation(ProjectRule):
    """Fast paths must credit exactly the queue trips they elide."""

    id = "F502"
    name = "crediting-conservation"
    rationale = (
        "A fast path that elides queue trips must credit them so "
        "events_processed stays bit-identical with the slow path. F502 "
        "verifies this across function boundaries: every function touching "
        "foreign fast-path internals needs a crediting call reachable in the "
        "call graph, and literal credit_events() amounts must equal the "
        "elided grant/release mutations they stand for."
    )
    scope = MODEL_PACKAGES

    def check_project(self, project: Project) -> Iterator[Finding]:
        """Yield reachability and conservation findings over the project."""
        for qualname in sorted(project.functions):
            func = project.functions[qualname]
            if func.module.startswith("repro.simcore"):
                continue
            summary = func.summary
            if not summary.foreign_touch_lines:
                continue
            line = min(summary.foreign_touch_lines)
            if not _discharged(project, func):
                yield Finding(
                    rule=self.id,
                    name=self.name,
                    path=func.path,
                    line=line,
                    col=0,
                    message=(
                        f"{func.name}() touches fast-path internals but no "
                        f"crediting call is reachable within "
                        f"{_DISCHARGE_DEPTH} call-graph hops; elided events "
                        f"would desynchronise events_processed "
                        f"(docs/performance.md)"
                    ),
                )
                continue
            if (
                summary.credit_literals
                and not summary.dynamic_credit
                and not summary.credits_inplace
                and summary.elide_count > 0
                and sum(summary.credit_literals) != summary.elide_count
            ):
                yield Finding(
                    rule=self.id,
                    name=self.name,
                    path=func.path,
                    line=line,
                    col=0,
                    message=(
                        f"{func.name}() credits "
                        f"{sum(summary.credit_literals)} event(s) but elides "
                        f"{summary.elide_count} (one per foreign "
                        f"users.append/remove); the fast path would not be "
                        f"bit-identical with the slow path"
                    ),
                )
