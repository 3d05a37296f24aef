"""Hygiene rules (``H``): failure modes that corrupt results silently.

These are general Python hazards, scoped to where they bite this code base:
mutable default arguments leak state between simulation runs that share a
process (the sweep's persistent worker pool), bare excepts swallow
``BufferClosed`` control flow in consumer loops, and
sleep-polling in the threaded runtime both burns CPU and makes measured
stall times scheduler-dependent.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from repro.lint.framework import Finding, LineFix, Module, Rule, register
from repro.lint.rules._helpers import canonical_call, import_aliases, walk_shallow

__all__ = ["MutableDefaultArg", "BareExcept", "SleepPolling"]


@register
class MutableDefaultArg(Rule):
    """H401: no mutable default argument values."""

    id = "H401"
    name = "mutable-default"
    rationale = (
        "A mutable default is created once per process and shared by every "
        "call; under the sweep's persistent worker pool that leaks state "
        "between scenarios, breaking run-to-run reproducibility.  Default to "
        "`None` and create the container in the body."
    )

    _MUTABLE_CALLS = frozenset({"list", "dict", "set", "defaultdict", "OrderedDict"})

    def check(self, module: Module) -> Iterator[Finding]:
        """Flag list/dict/set literals (or constructors) used as defaults."""
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                mutable = isinstance(
                    default, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
                ) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in self._MUTABLE_CALLS
                )
                if mutable:
                    name = getattr(node, "name", "<lambda>")
                    yield self.finding(
                        module,
                        default,
                        f"mutable default argument in `{name}` is shared "
                        "across calls (and across scenarios in a pooled "
                        "worker); default to None and build it in the body",
                    )


@register
class BareExcept(Rule):
    """H402: no bare ``except:`` clauses."""

    id = "H402"
    name = "bare-except"
    rationale = (
        "`except:` catches `KeyboardInterrupt`, `SystemExit` and the "
        "runtime's own control-flow exception (`BufferClosed`), silently "
        "eating shutdown and end-of-stream delivery in consumer loops.  "
        "Catch `Exception` — or the specific type — instead."
    )
    fixable = True

    _BARE_RE = re.compile(r"(^\s*)except(\s*):")

    def check(self, module: Module) -> Iterator[Finding]:
        """Flag ``except:`` handlers with no exception type."""
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    module,
                    node,
                    "bare `except:` also catches KeyboardInterrupt/SystemExit "
                    "and simulator control-flow exceptions; catch `Exception` "
                    "or the specific type",
                    fix=self._fix(module, node),
                )

    def _fix(self, module: Module, node: ast.ExceptHandler) -> Optional[LineFix]:
        """Rewrite ``except:`` to ``except Exception:`` on the handler line."""
        if not (1 <= node.lineno <= len(module.lines)):
            return None
        line = module.lines[node.lineno - 1]
        new_line, n = self._BARE_RE.subn(r"\1except Exception:", line, count=1)
        if n != 1:
            return None
        return LineFix(line=node.lineno, new_lines=(new_line,))


@register
class SleepPolling(Rule):
    """H403: threads in the runtime must not poll with ``time.sleep``."""

    id = "H403"
    name = "sleep-poll"
    rationale = (
        "A `while ...: time.sleep(...)` poll burns CPU, adds up to one poll "
        "interval of latency per hand-off, and makes measured stall times "
        "scheduler-dependent.  The runtime's buffers expose "
        "`threading.Condition`/`Event` primitives — block on those instead "
        "(emulated transfer *durations* outside loops are fine)."
    )
    scope = ("repro.core",)

    def check(self, module: Module) -> Iterator[Finding]:
        """Flag ``time.sleep`` calls inside ``while`` loops."""
        aliases = import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.While):
                continue
            for inner in walk_shallow(node, include_root=False):
                if (
                    isinstance(inner, ast.Call)
                    and canonical_call(inner, aliases) == "time.sleep"
                ):
                    yield self.finding(
                        module,
                        inner,
                        "`time.sleep` inside a while loop is a poll; block on "
                        "the buffer's Condition/Event primitive instead",
                    )
