"""Continuous benchmarking harness: measured suites and the ``BENCH_*.json`` trail.

The figure benches regenerate the paper's tables; *this* module watches the
simulator itself.  A :class:`BenchResult` records how fast the discrete-event
engine chewed through a named scenario suite — wall seconds, events processed,
events per second, scenario count — and is persisted as ``BENCH_<suite>.json``
at the repository root, so every PR that touches a hot path leaves a
comparable data point behind.  Each ``BENCH_<suite>.json`` holds a *history
series* — every recorded measurement in chronological order (capped at
:data:`HISTORY_LIMIT`) — so the whole optimisation trail of a suite stays
on record, not just the last point.  ``python -m repro.bench`` runs the
suites, compares against the latest *and best* recorded entries and (with
``--update``) appends the new measurement; CI runs the ``smoke`` suite with
``--check`` and fails on a >20% events/sec regression against the **best**
entry ever recorded, so a slow baseline refresh cannot mask a real loss.

``events_processed`` counts *modelled* events: the engine's fast paths
(see ``docs/performance.md``) credit the events they elide, so the count is
machine-independent and bit-stable for fixed seeds — a change in the count
means the modelled workload changed, while a change in events/sec alone means
the engine got faster or slower.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "BenchResult",
    "HISTORY_LIMIT",
    "SUITES",
    "bench_path",
    "best_result",
    "compare",
    "load_history",
    "load_result",
    "run_suite",
    "suite_cases",
    "write_result",
]

#: Most entries a suite's history series keeps; appending beyond it drops the
#: oldest entries.  Generous for one entry per landed optimisation PR.
HISTORY_LIMIT = 100

#: Registry of named suites: suite name -> (case factory, repeats).
SUITES: Dict[str, Tuple[Callable[[], List[Tuple[str, object]]], int]] = {}


def _suite(name: str, repeats: int = 1):
    """Register a case factory as a named bench suite."""

    def register(factory: Callable[[], List[Tuple[str, object]]]):
        SUITES[name] = (factory, repeats)
        return factory

    return register


@_suite("pipeline", repeats=3)
def _pipeline_suite() -> List[Tuple[str, object]]:
    """The headline suite: multi-stage chain and fan-out pipelines.

    Exercises the simulator's hot paths end to end — source compute loops,
    two different transports per graph, consumer/forwarding ranks — at two
    job sizes, which is where the per-event engine cost dominates.
    """
    from repro.bench.experiments import pipeline_chain, pipeline_fanout

    cases: List[Tuple[str, object]] = []
    for cores in (384, 768):
        cases.append((f"chain/{cores}", pipeline_chain(total_cores=cores, steps=24)))
        cases.append((f"fanout/{cores}", pipeline_fanout(total_cores=cores, steps=24)))
    return cases


@_suite("elastic", repeats=1)
def _elastic_suite() -> List[Tuple[str, object]]:
    """Elastic control-loop suite: the bursty grid under both policies."""
    from repro.bench.experiments import model_vs_threshold_spec

    return model_vs_threshold_spec(steps=24).configs()


@_suite("faults", repeats=1)
def _faults_suite() -> List[Tuple[str, object]]:
    """Fault-injection suite: checkpoint intervals × modes under one plan.

    A downsized :func:`~repro.bench.experiments.fault_recovery_spec` grid —
    the injector, crash/respawn and degraded-rerouting paths all fire, so
    the suite's ``events_processed`` pins the modelled fault workload.
    """
    from repro.bench.experiments import fault_recovery_spec

    return fault_recovery_spec(steps=12, checkpoint_intervals=(1, 4)).configs()


@_suite("tenants", repeats=1)
def _tenants_suite() -> List[Tuple[str, object]]:
    """Multi-tenant co-scheduling suite: policy × arrival contention grid.

    A downsized :func:`~repro.bench.experiments.tenant_contention_spec`
    grid — admission, epoch-quantized water-filling and segmented pipeline
    advancement all fire, so the suite's ``events_processed`` pins the
    modelled multi-tenant workload.
    """
    from repro.bench.experiments import tenant_contention_spec

    return tenant_contention_spec(steps=6).configs()


@_suite("smoke", repeats=1)
def _smoke_suite() -> List[Tuple[str, object]]:
    """Small grid for CI: one chain and one fan-out at laptop scale."""
    from repro.bench.experiments import pipeline_chain, pipeline_fanout

    return [
        ("chain/384", pipeline_chain(total_cores=384, steps=6)),
        ("fanout/384", pipeline_fanout(total_cores=384, steps=6)),
    ]


@_suite("sanitize", repeats=1)
def _sanitize_suite() -> List[Tuple[str, object]]:
    """The smoke cases under the runtime sanitizer (overhead tracking).

    Same workload as ``smoke`` with ``repro.sanitize`` armed, so the ratio
    of the two suites' events/sec is the sanitizer's overhead.  Its
    ``events_processed`` must equal the smoke suite's — the sanitizer is a
    pure detector.
    """
    from repro.bench.experiments import pipeline_chain, pipeline_fanout

    return [
        ("chain/384", pipeline_chain(total_cores=384, steps=6).replace(sanitize=True)),
        ("fanout/384", pipeline_fanout(total_cores=384, steps=6).replace(sanitize=True)),
    ]


@_suite("campaign", repeats=1)
def _campaign_suite() -> List[Tuple[str, object]]:
    """Distributed-campaign overhead suite (see :mod:`repro.campaign.bench`).

    Measured through a real coordinator/worker campaign over localhost HTTP
    rather than the plain sweep engine — :func:`run_suite` dispatches it to
    :func:`repro.campaign.bench.run_campaign_suite`, which also asserts the
    canonical byte-identity of the campaign store against a serial baseline.
    """
    from repro.campaign.bench import campaign_suite_cases

    return campaign_suite_cases()


@dataclass
class BenchResult:
    """One measured run of a bench suite (the ``BENCH_<suite>.json`` schema)."""

    suite: str
    wall_seconds: float
    events_processed: int
    events_per_sec: float
    scenarios: int
    failed_scenarios: int
    #: Total *simulated* seconds across the suite's scenarios (a cheap
    #: model-fidelity check: engine work should change it by exactly 0).
    sim_seconds: float
    #: Wall-clock timestamp of the measurement (ISO 8601, local time).
    timestamp: str
    #: Interpreter/platform the measurement was taken on (events/sec is
    #: machine-dependent; events_processed is not).
    environment: Dict[str, str] = field(default_factory=dict)
    #: events/sec of the measurement this one replaced (0.0 for the first).
    previous_events_per_sec: float = 0.0
    #: ``events_per_sec / previous_events_per_sec`` (0.0 for the first).
    speedup_vs_previous: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe dictionary form."""
        return asdict(self)


def suite_cases(suite: str) -> List[Tuple[str, object]]:
    """The ``(label, config)`` list a suite runs (repeats not applied)."""
    try:
        factory, _repeats = SUITES[suite]
    except KeyError:
        raise ValueError(f"unknown bench suite {suite!r}; known: {sorted(SUITES)}") from None
    return factory()


def run_suite(suite: str, workers: int = 0, repeats: Optional[int] = None) -> BenchResult:
    """Run a named suite and measure engine throughput.

    Scenarios run through the sweep engine — serially in-process by default,
    so events/sec measures the simulator rather than multiprocessing fan-out;
    pass ``workers`` > 1 to measure the pooled path instead.  ``repeats``
    overrides the suite's registered repeat count (the case list is run that
    many times back to back to stabilise short measurements).
    """
    from repro.sweep.runner import SweepRunner

    if suite == "campaign":
        from repro.campaign.bench import run_campaign_suite

        return run_campaign_suite(workers=workers, repeats=repeats)
    cases = suite_cases(suite)  # raises for unknown suites
    _factory, default_repeats = SUITES[suite]
    n = default_repeats if repeats is None else max(1, int(repeats))
    work = [
        (f"{label}#r{rep}" if n > 1 else label, config)
        for rep in range(n)
        for label, config in cases
    ]

    runner = SweepRunner(workers=workers)
    start = time.perf_counter()
    try:
        records = runner.run(work)
    finally:
        runner.close()
    wall = time.perf_counter() - start

    events = 0
    sim_seconds = 0.0
    failed = 0
    for record in records:
        if not record.ok or record.result is None:
            failed += 1
            continue
        result = record.result
        events += int(result.stats.get("events_processed", 0.0))
        if result.failed:
            failed += 1
        elif result.end_to_end_time == result.end_to_end_time:  # not NaN
            sim_seconds += result.end_to_end_time

    return BenchResult(
        suite=suite,
        wall_seconds=wall,
        events_processed=events,
        events_per_sec=events / wall if wall > 0 else 0.0,
        scenarios=len(records),
        failed_scenarios=failed,
        sim_seconds=sim_seconds,
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%S"),
        environment={
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "system": platform.system(),
            "workers": str(workers),
        },
    )


def bench_path(suite: str, directory: Union[str, Path, None] = None) -> Path:
    """Where a suite's committed baseline lives (``BENCH_<suite>.json``)."""
    base = Path(directory) if directory is not None else _repo_root()
    return base / f"BENCH_{suite}.json"


def _repo_root() -> Path:
    """The repository root (three levels above this file's package)."""
    return Path(__file__).resolve().parents[3]


def _entry_from_dict(raw: object) -> Optional[BenchResult]:
    """A :class:`BenchResult` from one JSON entry (``None`` if malformed)."""
    if not isinstance(raw, dict):
        return None
    known = {f for f in BenchResult.__dataclass_fields__}
    kwargs = {k: v for k, v in raw.items() if k in known}
    try:
        return BenchResult(**kwargs)
    except TypeError:
        return None


def load_history(path: Union[str, Path]) -> List[BenchResult]:
    """Load a suite's recorded history series, oldest first.

    Reads the ``{"suite": ..., "history": [...]}`` schema; a legacy one-slot
    file (a single result object at the top level, the pre-history format)
    loads as a single-entry series.  Absent or corrupt files load as empty.
    """
    path = Path(path)
    if not path.exists():
        return []
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return []
    if not isinstance(raw, dict):
        return []
    if isinstance(raw.get("history"), list):
        entries = [_entry_from_dict(item) for item in raw["history"]]
        return [e for e in entries if e is not None]
    single = _entry_from_dict(raw)
    return [single] if single is not None else []


def load_result(path: Union[str, Path]) -> Optional[BenchResult]:
    """The *latest* recorded result, or ``None`` if the file is absent/corrupt."""
    history = load_history(path)
    return history[-1] if history else None


def best_result(history: Sequence[BenchResult]) -> Optional[BenchResult]:
    """The highest-throughput entry of a history series (``None`` if empty).

    Ties keep the earliest entry, so the reference point is stable when a
    re-measurement lands on exactly the baseline throughput.
    """
    best: Optional[BenchResult] = None
    for entry in history:
        if best is None or entry.events_per_sec > best.events_per_sec:
            best = entry
    return best


def write_result(
    result: BenchResult,
    path: Union[str, Path],
    previous: Optional[BenchResult] = None,
    limit: int = HISTORY_LIMIT,
) -> Path:
    """Append ``result`` to the suite's ``BENCH_<suite>.json`` history series.

    The existing series (legacy one-slot files included) is preserved, the
    new measurement is stamped with its speedup vs ``previous`` (defaulting
    to the latest recorded entry) and appended, and the series is trimmed to
    the newest ``limit`` entries.
    """
    path = Path(path)
    history = load_history(path)
    if previous is None and history:
        previous = history[-1]
    if previous is not None and previous.events_per_sec > 0:
        result.previous_events_per_sec = previous.events_per_sec
        result.speedup_vs_previous = result.events_per_sec / previous.events_per_sec
    history.append(result)
    if limit > 0:
        history = history[-limit:]
    payload = {
        "suite": result.suite,
        "history": [entry.as_dict() for entry in history],
    }
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def compare(current: BenchResult, previous: Optional[BenchResult]) -> Dict[str, float]:
    """Throughput delta of ``current`` vs ``previous``.

    Returns ``{"speedup": current/previous, "regression_pct": ...}`` where a
    positive ``regression_pct`` means *slower* than the baseline; both are
    0.0 when there is no usable baseline.
    """
    if previous is None or previous.events_per_sec <= 0:
        return {"speedup": 0.0, "regression_pct": 0.0}
    speedup = current.events_per_sec / previous.events_per_sec
    return {"speedup": speedup, "regression_pct": max(0.0, (1.0 - speedup) * 100.0)}
