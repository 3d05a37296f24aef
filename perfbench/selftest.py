#!/usr/bin/env python3
"""Sensitivity self-test: can the benchmark see a planted slowdown, and place it?

    python3 perfbench/selftest.py

Two probes, each planting a busy-wait inside the benchmark's own wrapper of
one layer entry point (``perfbench/tracing.py``; the program is untouched):

* ``Network.transfer`` on ``pipeline-serial`` — a per-call delay sized so
  the planted total is ``PLANTED_SHARE`` of the untraced wall;
* ``CoordinatorServer.stop`` on ``campaign-local`` — one delay of
  ``PLANTED_SHARE`` of the untraced wall.

For each probe it alternates plain and delayed passes, untraced and traced,
and requires the median ``wall_s`` of the untraced ones to grow by more than
the metric's bound in ``BENCHMARK.json`` and the median of the probed
layer's time in the traced ones (``cluster.network.self_s`` /
``campaign.stop_s``) to grow by the planted seconds, within
``ATTRIBUTION_RANGE``.  Exit code 0 when every check holds.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.run import OUTPUT, ROOT, run_pass  # noqa: E402

#: The planted slowdown as a share of the workload's untraced wall time.
PLANTED_SHARE = 0.4

#: (plain, delayed) pass pairs per probe, untraced and traced each.
PAIRS = 3

#: Accepted range of (probed layer's time growth) / (planted seconds).
ATTRIBUTION_RANGE = (0.8, 1.5)


def _wall_bound() -> float:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next(m["bound"] for m in benchmark["end_to_end"] if m["name"] == "wall_s")


def probe(workload: str, target: str, layer_metric: str, per_call) -> list:
    """Run one probe; returns the failed checks as messages."""
    bound = _wall_bound()
    baseline = run_pass(workload, 1, 0)
    trace_file = OUTPUT / "selftest.trace.json"
    traced_plain = [run_pass(workload, 1, 1, trace_file=trace_file)["layers"]]
    calls, delay = per_call(baseline, traced_plain[0])
    planted = calls * delay
    delays = (f"{target}={delay!r}",)
    plain, slowed, traced_slow = [baseline["wall_s"]], [], []
    for i in range(PAIRS):
        slowed.append(run_pass(workload, 1, 10 + i, delays=delays)["wall_s"])
        traced_slow.append(run_pass(workload, 1, 30 + i, trace_file=trace_file, delays=delays)["layers"])
        if i + 1 < PAIRS:
            plain.append(run_pass(workload, 1, 20 + i)["wall_s"])
            traced_plain.append(run_pass(workload, 1, 40 + i, trace_file=trace_file)["layers"])

    def change(metric: str) -> float:
        return statistics.median(t[metric] for t in traced_slow) - statistics.median(
            t[metric] for t in traced_plain
        )

    moved = statistics.median(slowed) / statistics.median(plain) - 1.0
    charged = change(layer_metric)
    others = sorted(
        (change(k), k)
        for k in traced_plain[0]
        if k.endswith(".self_s") and not k.startswith(layer_metric.rsplit(".", 1)[0] + ".")
    )[::-1]
    print(f"{workload}: planted {calls:g} x {delay * 1e6:.2f} us = {planted:.3f} s in {target}")
    print(f"  wall_s median {statistics.median(plain):.3f} -> {statistics.median(slowed):.3f} s "
          f"(+{moved:.1%}; bound {bound:.0%})")
    print(f"  {layer_metric} {charged:+.3f} s ({charged / planted:.0%} of planted); "
          f"largest other self-time change {others[0][1]} {others[0][0]:+.3f} s")
    problems = []
    if moved <= bound:
        problems.append(f"{workload}: wall_s moved {moved:.1%}, not past its bound {bound:.0%}")
    low, high = ATTRIBUTION_RANGE
    if not low <= charged / planted <= high:
        problems.append(f"{workload}: {layer_metric} grew {charged:.3f} s for {planted:.3f} s planted")
    return problems


def main() -> int:
    def per_transfer(baseline, traced):
        transfers = traced["cluster.network.transfers"]
        return transfers, PLANTED_SHARE * baseline["wall_s"] / transfers

    def one_stop(baseline, traced):
        return 1, PLANTED_SHARE * baseline["wall_s"]

    problems = probe("pipeline-serial", "Network.transfer", "cluster.network.self_s", per_transfer)
    problems += probe("campaign-local", "CoordinatorServer.stop", "campaign.stop_s", one_stop)
    for problem in problems:
        print(f"SELFTEST FAILED: {problem}")
    if not problems:
        print("selftest passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
