#!/usr/bin/env python3
"""Run one workload of the repository's benchmark and print its metrics.

    python3 perfbench/run.py --workload pipeline-serial --seed 1 --seconds 20 --trace 0

Every pass runs in a fresh Python process (``perfbench/rep.py``), so each
pass pays, and reports, its own set-up.  A run repeats passes for
``--seconds`` (at least ``MIN_PASSES``), starting a pass only while it is
expected to end in time.

``--trace 0`` prints the end-to-end metrics, medians over the passes; the
case times are taken from each case's median ``elapsed`` over the passes.
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of the traced pass with the median wall time, writing
its spans as Chrome Trace Event Format JSON and the metrics as JSON under
``.perfbench/``.

Every run checks its outputs: each pass's records must all be ``ok``, every
pass must produce the same ``events_processed`` and canonical-store sha256,
traced passes must equal untraced ones, ``campaign-local`` must equal a
serial sweep of its grid, and at the default seed the values recorded in
``perfbench/digests.json`` must match.  The last line of stdout is one JSON
object; the exit code is 1 when a check failed and 2 when the repository's
sources are missing.

``--record`` re-measures ``perfbench/digests.json`` at the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
OUTPUT = ROOT / ".perfbench"

WORKLOADS = ("pipeline-serial", "controlled-serial", "sweep-pooled", "campaign-local")

#: Seed whose outputs ``perfbench/digests.json`` records.
DEFAULT_SEED = 1

MIN_PASSES = 3
PASS_TIMEOUT_S = 150.0

#: A case-time tail needs this many samples beyond it.
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "events_per_s": "1/s",
    "case_p50_s": "s",
    "case_tail_s": "s",
    "peak_rss_mb": "MB",
}


class PassError(RuntimeError):
    """A pass process failed to produce a result."""


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".bytes"):
        return "B"
    if metric.endswith("_frac") or metric.endswith("overhead"):
        return "ratio"
    if metric.endswith("ns_per_pop"):
        return "ns"
    return "count"


def run_pass(
    workload: str,
    seed: int,
    index: int,
    trace_file: Optional[Path] = None,
    reference: bool = False,
    delays: Tuple[str, ...] = (),
) -> Dict[str, object]:
    """Run one pass in a fresh process group and return its JSON result."""
    workdir = OUTPUT / "work" / f"{os.getpid()}-{index}"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = str(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    command = [sys.executable, "-m", "perfbench.rep", "--workload", workload, "--seed", str(seed)]
    command += ["--workdir", str(workdir)]
    if trace_file is not None:
        command += ["--trace-file", str(trace_file)]
    if reference:
        command.append("--reference")
    for delay in delays:
        command += ["--delay", delay]
    t_launch = time.perf_counter()
    proc = subprocess.Popen(
        command + ["--t-launch", repr(t_launch)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassError(f"{workload} pass {index} exceeded {PASS_TIMEOUT_S:g}s") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise PassError(f"{workload} pass {index} exited {proc.returncode}:\n{stderr[-4000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def _passes(workload: str, seed: int, seconds: int, traced: bool = False) -> List[Dict[str, object]]:
    """Run passes until ``seconds`` are spent, at least ``MIN_PASSES``.

    A pass starts only while the longest pass so far would still end in
    time.  ``traced`` runs untraced and traced passes in pairs, at least one.
    """
    start = time.perf_counter()
    minimum = 2 if traced else MIN_PASSES
    passes: List[Dict[str, object]] = []
    longest = 0.0
    while len(passes) < minimum or time.perf_counter() - start + longest <= seconds:
        began = time.perf_counter()
        i = len(passes)
        reference = i == 0 and workload == "campaign-local"
        passes.append(run_pass(workload, seed, i, reference=reference))
        if traced:
            trace_file = OUTPUT / "work" / f"{workload}-seed{seed}-{i + 1}.trace.json"
            traced_pass = run_pass(workload, seed, i + 1, trace_file=trace_file)
            passes.append(dict(traced_pass, traced=True, trace_file=str(trace_file)))
        longest = max(longest, time.perf_counter() - began)
    return passes


def case_medians(passes: List[Dict[str, object]]) -> List[float]:
    """Each case's median ``elapsed`` over the passes, sorted."""
    samples: Dict[str, List[float]] = {}
    for p in passes:
        for label, seconds in p["elapsed"].items():
            samples.setdefault(label, []).append(seconds)
    return sorted(statistics.median(times) for times in samples.values())


def tail_percentile(cases: int) -> float:
    """Percentile of ``case_tail_s`` among the medians of ``cases`` cases.

    The highest percentile with ``TAIL_BEYOND`` cases beyond it; with
    fewer than twice that many cases, the slowest case (p100).
    """
    if cases < 2 * TAIL_BEYOND:
        return 100.0
    return 100.0 * (cases - TAIL_BEYOND) / cases


def percentile(samples: List[float], pct: float) -> float:
    """Linear-interpolated percentile of ``samples``."""
    ordered = sorted(samples)
    position = (len(ordered) - 1) * pct / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def end_to_end(passes: List[Dict[str, object]]) -> Dict[str, float]:
    """The end-to-end metrics of a run's untraced passes: medians over passes."""
    cases = case_medians(passes)
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "events_per_s": statistics.median(p["events"] / p["wall_s"] for p in passes),
        "case_p50_s": statistics.median(cases),
        "case_tail_s": percentile(cases, tail_percentile(len(cases))),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }


def check(workload: str, seed: Optional[int], passes: List[Dict[str, object]]) -> List[str]:
    """Every failed output check of the run, as a message.

    ``seed=None`` skips the comparison with ``digests.json`` (``--record``).
    """
    problems: List[str] = []
    for p in passes:
        if p["failed"]:
            problems.append(f"{p['failed']} of {p['attempted']} records not ok")
        problems.extend(p.get("errors", []))
        if "reference_digest" in p and p["reference_digest"] != p["digest"]:
            problems.append(
                f"campaign store digest {p['digest'][:16]} differs from the serial "
                f"sweep of its grid {p['reference_digest'][:16]}"
            )
        if "layers" in p and p["layers"]["other.self_s"] < -1e-6:
            problems.append("per-layer self times exceed the traced wall")
    outputs = {(p["events"], p["digest"]) for p in passes}
    if len(outputs) > 1:
        problems.append(f"passes disagree on (events_processed, sha256): {sorted(outputs)}")
    if seed == DEFAULT_SEED and DIGESTS.exists():
        recorded = json.loads(DIGESTS.read_text())["workloads"].get(workload)
        expected = (recorded["events_processed"], recorded["sha256"]) if recorded else None
        if expected is None or outputs != {expected}:
            problems.append(f"outputs {sorted(outputs)} differ from the recorded {expected}")
    return problems


def _print_outputs(seed: int, passes: List[Dict[str, object]]) -> None:
    first = passes[0]
    match = "recorded default-seed values" if seed == DEFAULT_SEED else "nothing (not the default seed)"
    print(f"  events_processed {first['events']}  sha256 {first['digest']}  compared with {match}")
    if "reference_digest" in first:
        print(f"  serial sweep of the same grid: sha256 {first['reference_digest']}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite perfbench/digests.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload is None and not args.record:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    # Compile once up front so no pass's set-up includes writing bytecode.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
        check=True,
        stdout=subprocess.DEVNULL,
    )
    try:
        if args.record:
            return record()
        if args.trace:
            return traced_run(args.workload, args.seed, args.seconds)
        return untraced_run(args.workload, args.seed, args.seconds)
    except PassError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


def untraced_run(workload: str, seed: int, seconds: int) -> int:
    passes = _passes(workload, seed, seconds)
    metrics = end_to_end(passes)
    problems = check(workload, seed, passes)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"perfbench {workload} seed {seed}: {len(passes)} passes, tracing off")
    for name, value in metrics.items():
        print(f"  {name:<14} {value:>14.6g} {END_TO_END_UNITS[name]}")
    cases = len(case_medians(passes))
    pct = tail_percentile(cases)
    print(f"  case_tail_s is p{pct:.1f} of the {cases} cases' median times over {len(passes)} "
          f"passes; {cases - round(pct * cases / 100)} lie beyond it")
    print("  pass wall_s " + " ".join(f"{p['wall_s']:.3f}" for p in passes))
    print(f"  failed_frac    {failed / attempted:>14.6g} ratio ({failed} of {attempted} cases)")
    _print_outputs(seed, passes)
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def traced_run(workload: str, seed: int, seconds: int) -> int:
    passes = _passes(workload, seed, seconds, traced=True)
    plain = [p for p in passes if not p.get("traced")]
    traced = sorted((p for p in passes if p.get("traced")), key=lambda p: p["wall_s"])
    problems = check(workload, seed, passes)
    # One pass's layers, so the self times still sum to its wall exactly.
    middle = traced[(len(traced) - 1) // 2]
    layers = dict(middle["layers"])
    layers["trace.wall_s"] = middle["wall_s"]
    layers["trace.overhead"] = statistics.median(p["wall_s"] for p in traced) / statistics.median(
        p["wall_s"] for p in plain
    )
    wanted = _per_layer_names()
    metrics = {k: {"value": layers.get(k, 0.0), "unit": _unit(k)} for k in wanted or sorted(layers)}
    stem = OUTPUT / f"{workload}-seed{seed}"
    Path(middle["trace_file"]).replace(stem.with_suffix(".trace.json"))
    for p in traced:
        Path(p["trace_file"]).unlink(missing_ok=True)
    stem.with_suffix(".layers.json").write_text(json.dumps(layers, indent=1, sort_keys=True))
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"perfbench {workload} seed {seed}: {len(plain)} untraced + {len(traced)} traced passes; "
          f"layers of the median traced pass")
    self_times = sorted(((v, k) for k, v in layers.items() if k.endswith("self_s")), reverse=True)
    for value, name in self_times:
        print(f"  {name:<32} {value:>10.4f} s  {100 * value / layers['trace.wall_s']:5.1f}% of traced wall")
    print(f"  tracing overhead: median traced wall_s / median untraced wall_s = {layers['trace.overhead']:.3f}")
    print(f"  spans: {stem.with_suffix('.trace.json')}  metrics: {stem.with_suffix('.layers.json')}")
    _print_outputs(seed, passes)
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


def _per_layer_names() -> List[str]:
    benchmark = ROOT / "BENCHMARK.json"
    if not benchmark.exists():
        return []
    return [m["name"] for m in json.loads(benchmark.read_text())["per_layer"]]


def record() -> int:
    """Measure every workload once at the default seed and rewrite the digests."""
    recorded = {}
    for workload in WORKLOADS:
        result = run_pass(workload, DEFAULT_SEED, 0, reference=(workload == "campaign-local"))
        problems = check(workload, None, [result])
        if problems:
            print(f"perfbench: {workload}: {problems}", file=sys.stderr)
            return 1
        recorded[workload] = {"events_processed": result["events"], "sha256": result["digest"]}
        print(f"{workload}: {recorded[workload]}")
    DIGESTS.write_text(json.dumps({"seed": DEFAULT_SEED, "workloads": recorded}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
