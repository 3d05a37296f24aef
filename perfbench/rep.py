"""One pass of one workload in a fresh process; ``run.py`` starts one per pass.

Prints the pass's measurements as one JSON object on stdout.  With
``--trace-file`` the pass is traced (see :mod:`perfbench.tracing`) and its
spans are written there in Chrome Trace Event Format.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from perfbench import tracing
from perfbench.workloads import WORKLOADS, run_pass


def _delays(specs: List[str]) -> Dict[str, float]:
    delays = {}
    for spec in specs:
        target, _, seconds = spec.partition("=")
        delays[target] = float(seconds)
    return delays


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t-launch", type=float, required=True, help="parent perf_counter at launch")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path, help="trace the pass and write its spans here")
    parser.add_argument("--reference", action="store_true", help="also digest a serial run of the campaign grid")
    parser.add_argument(
        "--delay",
        action="append",
        default=[],
        metavar="TARGET=SECONDS",
        help=f"plant a per-call delay (sensitivity self-test); targets: {sorted(tracing.DELAY_TARGETS)}",
    )
    args = parser.parse_args(argv)
    delays = _delays(args.delay)
    traced = args.trace_file is not None
    if traced or delays:
        tracing.install(trace=traced, delays=delays)
    out = run_pass(args.workload, args.seed, args.workdir, args.t_launch, traced, args.reference)
    child_spans = out.pop("child_spans", [])
    if traced:
        trace = tracing.chrome_trace(
            child_spans,
            origin=args.t_launch,
            metadata={"workload": args.workload, "seed": args.seed, "wall_s": out["wall_s"]},
        )
        args.trace_file.parent.mkdir(parents=True, exist_ok=True)
        args.trace_file.write_text(json.dumps(trace))
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
