"""Interprocedural flow analysis over the whole ``repro`` model tree.

The per-module rules are *intra*procedural: each looks at one function of
one module.  The crediting contract behind the engine's fast paths is a
whole-program property, so this subpackage adds the missing layer:

* :mod:`repro.lint.flow.project` — a project-wide function index with a
  name-based call graph, built from the same
  :class:`~repro.lint.framework.Module` objects the per-module rules see;
* :mod:`repro.lint.flow.summaries` — each function's fast-path crediting
  shape (foreign internals touched, literal and dynamic credits, elided
  queue trips);
* :mod:`repro.lint.flow.crediting` — rule **F502**: the interprocedural
  upgrade of E301 — every fast path must credit, on some call path, exactly
  the events it elides;
* :mod:`repro.lint.flow.report` — the machine-readable crediting
  certificate behind ``python -m repro.lint --flow-report``.

Call resolution is name-based and over-approximates; the runtime sanitizer
(:mod:`repro.sanitize`) validates the dynamically computed credits the
static check exempts.
"""

from repro.lint.flow.project import Project
from repro.lint.flow.report import flow_report

__all__ = ["Project", "flow_report"]
