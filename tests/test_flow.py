"""Tests for the interprocedural flow analysis (``repro.lint.flow``).

Fixtures exercise F502 one fast-path shape at a time — uncredited touch,
literal mismatch, exact and dynamic credits, credit reached through the call
graph — then the meta-tests pin the crediting certificate of the shipped
tree.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from repro.lint import lint_source, select_rules
from repro.lint.flow.report import flow_report

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Fixture module inside the model scope (and outside ``repro.simcore``), so
#: F502 checks its fast paths.
MOD = "repro.cluster.fixture"

F502 = select_rules(["F502"])


def _f502(source: str):
    return [f for f in lint_source(source, module_name=MOD, rules=F502)]


# -- F502 crediting conservation ------------------------------------------


class TestCreditingConservation:
    def test_uncredited_foreign_touch_fires(self):
        src = (
            "def compute(self, cores):\n"
            "    cores.users.append(1)\n"
            "    yield None\n"
            "    cores.users.remove(1)\n"
        )
        findings = _f502(src)
        assert [f.rule for f in findings] == ["F502"]
        assert "crediting call" in findings[0].message

    def test_literal_mismatch_fires_where_e301_is_silent(self):
        # Credits 3, elides 2: E301 sees "a crediting call exists" and stays
        # silent; only the interprocedural conservation check catches it.
        src = (
            "def compute(self, cores):\n"
            "    cores.users.append(1)\n"
            "    yield None\n"
            "    cores.users.remove(1)\n"
            "    self.env.credit_events(3)\n"
        )
        assert lint_source(src, module_name=MOD, rules=select_rules(["E301"])) == []
        findings = _f502(src)
        assert [f.rule for f in findings] == ["F502"]
        assert "credits 3" in findings[0].message
        assert "elides 2" in findings[0].message

    def test_exact_literal_credit_is_clean(self):
        src = (
            "def compute(self, cores):\n"
            "    cores.users.append(1)\n"
            "    yield None\n"
            "    cores.users.remove(1)\n"
            "    self.env.credit_events(2)\n"
        )
        assert _f502(src) == []

    def test_dynamic_credit_is_exempt_from_the_literal_check(self):
        src = (
            "def compute_batch(self, cores, n):\n"
            "    cores.users.append(1)\n"
            "    yield None\n"
            "    cores.users.remove(1)\n"
            "    self.env.credit_events(2 * n)\n"
        )
        assert _f502(src) == []

    def test_credit_in_caller_discharges_the_helper(self):
        # The fast path is split across a helper: E301 would flag the helper,
        # F502 walks the call graph and finds the caller's credit.
        src = (
            "def grab(cores):\n"
            "    cores.users.append(1)\n"
            "    cores.users.remove(1)\n"
            "\n"
            "def fast(self, cores):\n"
            "    grab(cores)\n"
            "    self.env.credit_events(2)\n"
            "    yield None\n"
        )
        assert _f502(src) == []

    def test_unreachable_credit_still_fires(self):
        src = (
            "def grab(cores):\n"
            "    cores.users.append(1)\n"
            "    cores.users.remove(1)\n"
            "\n"
            "def unrelated(self):\n"
            "    self.env.credit_events(2)\n"
        )
        findings = _f502(src)
        assert [f.rule for f in findings] == ["F502"]


# -- meta-tests: the shipped tree -----------------------------------------


def _shipped_report():
    return flow_report([REPO_ROOT / "src"])


class TestShippedTreeCertificate:
    def test_crediting_entries_cover_the_known_fast_paths(self):
        report = _shipped_report()
        by_function = {entry["function"]: entry for entry in report["crediting"]}
        compute = by_function["repro.cluster.node:ComputeNode.compute"]
        assert compute["elided"] == 2
        assert compute["literal_credits"] == [2]
        batch = by_function["repro.cluster.node:ComputeNode.compute_batch"]
        assert batch["dynamic_credit"] is True

    def test_flow_report_cli_round_trips_as_json(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--flow-report", "src"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert list(payload) == ["crediting"]
        functions = [entry["function"] for entry in payload["crediting"]]
        assert functions == [e["function"] for e in _shipped_report()["crediting"]]
