"""The benchmark's workloads: inputs generated from a seed, one measured pass each.

A *pass* runs one workload once, in the calling process, in two phases:

* **setup** — imports, spec expansion and case preparation, plus pool start
  (``sweep-pooled``) or coordinator boot (``campaign-local``);
* **measured phase** — from the first case dispatched until every record is
  stored (for ``campaign-local`` including ``CoordinatorServer.stop()``).

The program only ever receives the generated cases: the seed becomes every
config's ``seed`` for the sweep workloads and draws the core counts of
``campaign-local``.
"""

from __future__ import annotations

import hashlib
import os
import random
import resource
import threading
import time
from pathlib import Path
from typing import Dict, List

from perfbench import tracing

_perf = time.perf_counter

#: Workload names, in the order ``BENCHMARK.json`` lists them.
WORKLOADS = ("pipeline-serial", "controlled-serial", "sweep-pooled", "campaign-local")

#: Steps per case of the workloads, as the benchmark defines them.
PIPELINE_STEPS = 48
CONTROLLED_STEPS = 24
TENANT_STEPS = 8
POOLED_STEPS = 24
CAMPAIGN_STEPS = 2

#: Pool size of ``sweep-pooled`` and worker loops of ``campaign-local``.
WORKERS = 2

#: ``campaign-local`` draws this many core counts from the multiples of 204
#: up to 13056 (the paper's Stampede2 node granularity and largest run).
CAMPAIGN_CORE_DRAWS = 40

#: Seconds a campaign worker thread may run before the pass is failed.
CAMPAIGN_JOIN_TIMEOUT = 120.0


def sweep_cases(workload: str, seed: int):
    """The generated ``SweepCase`` list of a sweep workload (not yet prepared)."""
    from repro.bench import experiments
    from repro.sweep.spec import SweepCase

    if workload == "pipeline-serial":
        shapes = (
            ("chain", experiments.pipeline_chain, "sim_to_analysis"),
            ("fanout", experiments.pipeline_fanout, "moments_transport"),
        )
        cases = []
        for shape, build, first_coupling in shapes:
            for cores in (384, 768, 1536):
                for transport in ("zipper", "flexpath", "dimes"):
                    label = f"{shape}/{cores}/{transport}"
                    spec = build(total_cores=cores, steps=PIPELINE_STEPS, **{first_coupling: transport})
                    cases.append(SweepCase(label, spec.replace(label=label, seed=seed)))
        return cases
    if workload == "controlled-serial":
        specs = (
            experiments.elastic_vs_static_spec(steps=CONTROLLED_STEPS),
            experiments.model_vs_threshold_spec(steps=CONTROLLED_STEPS),
            experiments.fault_recovery_spec(steps=CONTROLLED_STEPS),
            experiments.tenant_contention_spec(steps=TENANT_STEPS),
        )
    elif workload == "sweep-pooled":
        specs = (
            experiments.figure16_spec(steps=POOLED_STEPS),
            experiments.figure18_spec(steps=POOLED_STEPS),
        )
    else:
        raise ValueError(f"{workload!r} is not a sweep workload")
    return [
        SweepCase(f"{spec.name}/{case.label}", case.config.replace(seed=seed))
        for spec in specs
        for case in spec.cases()
    ]


def campaign_core_counts(seed: int) -> List[int]:
    """The core counts ``campaign-local`` sweeps for ``seed``.

    One draw from each of ``CAMPAIGN_CORE_DRAWS`` consecutive bins of the
    multiples, so every seed spans the whole range and the per-case cost
    distribution (and with it ``case_tail_s``) does not hinge on whether
    the draw happened to include the largest runs.
    """
    multiples = range(204, 13056 + 1, 204)
    bins = len(multiples)
    rng = random.Random(seed)
    return [
        rng.choice(multiples[i * bins // CAMPAIGN_CORE_DRAWS:(i + 1) * bins // CAMPAIGN_CORE_DRAWS])
        for i in range(CAMPAIGN_CORE_DRAWS)
    ]


def campaign_descriptor(seed: int) -> Dict[str, object]:
    """The figure16 CFD grid of ``campaign-local`` as a campaign spec descriptor."""
    from repro.campaign.protocol import spec_descriptor

    cores = ",".join(str(c) for c in campaign_core_counts(seed))
    return spec_descriptor("figure16", steps=CAMPAIGN_STEPS, cores=cores)


def store_digest(store) -> str:
    """sha256 of the store's canonical bytes, the behaviour oracle."""
    return hashlib.sha256(store.canonical_bytes()).hexdigest()


def _events(store) -> int:
    return sum(
        int(record.get("stats", {}).get("events_processed", 0))
        for record in store.canonical_records()
        if record.get("ok", True)
    )


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_pass(
    workload: str,
    seed: int,
    workdir: Path,
    t_launch: float,
    traced: bool = False,
    reference: bool = False,
) -> Dict[str, object]:
    """Run ``workload`` once and return its measurements and outputs.

    ``t_launch`` is the ``perf_counter`` reading taken by the parent right
    before it started this process, so ``setup_s`` covers interpreter start
    and imports.  ``reference`` (``campaign-local`` only) also runs the same
    grid as a plain serial sweep and returns that store's digest.
    """
    from repro.sweep.store import ResultStore

    workdir.mkdir(parents=True, exist_ok=True)
    store = ResultStore(workdir / "store.jsonl")
    if workload == "campaign-local":
        out = _campaign_pass(seed, store, workdir, traced, reference)
    else:
        out = _sweep_pass(workload, seed, store, traced)
    out["setup_s"] = out.pop("dispatch") - t_launch
    out["digest"] = store_digest(store)
    out["events"] = _events(store)
    out["rss_mb"] = _peak_rss_mb()
    if "layers" in out:
        out["layers"]["sweep.store.bytes"] = float(store.path.stat().st_size)
    return out


def _sweep_pass(workload: str, seed: int, store, traced: bool) -> Dict[str, object]:
    from repro.sweep.runner import SweepRunner, prepare_cases

    workers = WORKERS if workload == "sweep-pooled" else 0
    start = _perf()
    with tracing.span("sweep", "setup.prepare"):
        cases = prepare_cases(sweep_cases(workload, seed))
        for case in cases:
            case.config_digest  # noqa: B018 - hashing is part of case preparation
    phases = {"sweep.prepare_s": _perf() - start}
    runner = SweepRunner(workers=workers, store=store, reseed=False)
    try:
        if workers:
            start = _perf()
            with tracing.span("sweep", "setup.pool_start"):
                runner._ensure_pool(len(cases))
            phases["sweep.pool_start_s"] = _perf() - start
        tracing.reset()
        dispatch = _perf()
        records = runner.run(cases)
        end = _perf()
    finally:
        runner.close()
    out: Dict[str, object] = {
        "dispatch": dispatch,
        "wall_s": end - dispatch,
        "elapsed": {record.label: record.elapsed for record in records},
        "attempted": len(cases),
        "failed": sum(1 for record in records if not record.ok),
    }
    if traced:
        deltas = [r.perfbench for r in records if hasattr(r, "perfbench")]
        out["layers"] = dict(tracing.layer_report(end - dispatch, deltas), **phases)
        out["child_spans"] = [span for delta in deltas for span in delta["spans"]]
    return out


def _campaign_pass(seed: int, store, workdir: Path, traced: bool, reference: bool) -> Dict[str, object]:
    from repro.campaign.coordinator import Campaign, CoordinatorServer
    from repro.campaign.protocol import resolve_spec
    from repro.campaign.worker import CampaignWorker
    from repro.sweep.runner import SweepRunner
    from repro.sweep.store import ResultStore

    # Coordinator, handlers and worker loops are threads of this process and
    # share one GIL, so a second CPU adds only cross-CPU wake-ups, which a
    # shared host makes slow and erratic: run them all on one CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    descriptor = campaign_descriptor(seed)
    start = _perf()
    with tracing.span("campaign", "setup.boot"):
        campaign = Campaign(descriptor, store, shard_size=2, lease_seconds=10.0)
        server = CoordinatorServer(campaign).start()
    phases = {"campaign.boot_s": _perf() - start}
    errors: List[str] = []
    crew = [CampaignWorker(server.url, name=f"perfbench-{i}") for i in range(WORKERS)]

    def work(worker) -> None:
        try:
            worker.run()
        except Exception as exc:  # noqa: BLE001 - reported as a failed pass
            errors.append(f"{worker.name}: {exc!r}")

    threads = [threading.Thread(target=work, args=(w,), name=w.name) for w in crew]
    tracing.reset()
    dispatch = _perf()
    try:
        for thread in threads:
            thread.start()
        with tracing.span("wait.campaign", "campaign.join"):
            for thread in threads:
                thread.join(CAMPAIGN_JOIN_TIMEOUT)
    finally:
        hung = [t.name for t in threads if t.is_alive()]
        for worker in crew:
            worker.stop()
        for thread in threads:
            thread.join()
        server.stop()
    end = _perf()
    if hung:
        errors.append(f"worker threads still running after {CAMPAIGN_JOIN_TIMEOUT:g}s: {hung}")
    records = list(store.iter_records())
    out: Dict[str, object] = {
        "dispatch": dispatch,
        "wall_s": end - dispatch,
        "elapsed": {r["label"]: float(r.get("elapsed", 0.0)) for r in records if r.get("ok", True)},
        "attempted": len(campaign.cases),
        "failed": len(campaign.cases)
        - sum(1 for r in store.canonical_records() if r.get("ok", True)),
        "errors": errors,
    }
    if traced:
        layers = tracing.layer_report(end - dispatch)
        board = campaign.board
        posted = layers.pop("campaign.records_posted", 0.0)
        layers["campaign.useful_frac"] = campaign.records_merged / posted if posted else 0.0
        layers["campaign.retries"] = float(
            board.retries_scheduled + board.leases_stolen + board.leases_expired
        )
        out["layers"] = dict(layers, **phases)
    if reference:
        serial = ResultStore(workdir / "serial.jsonl")
        SweepRunner(workers=0, store=serial, trace=False).run(resolve_spec(descriptor))
        out["reference_digest"] = store_digest(serial)
    return out

