"""Property-based invariant harness: random pipelines, engine-wide contracts.

Each seed deterministically generates one small bursty pipeline — random
step count, core split, burst intensity, elastic policy (threshold,
model-driven, or none), checkpoint interval and optional seeded fault plan —
and every invariant test runs over the same seed set.  The invariants are
the contracts everything else in the repo leans on:

* **bit-identity** — the coalescing fast path and the per-event slow path
  persist byte-equal payloads, ``events_processed`` included, and so do a
  sanitized and a plain run (the sanitizer wraps the one step body);
* **conservation** — replaying the rebalance timeline from the baseline
  holdings reproduces the controller's final allocations and bandwidth
  shares *exactly* (cores and share units are never created or destroyed);
* **monotonicity** — recorded timelines never step backwards in time and
  never outrun the run itself;
* **round-trip** — the persisted JSONL payload survives a JSON encode/decode
  unchanged, and the typed timeline events rebuild exactly from their dicts;
* **reproducibility** — re-running a seeded fault scenario replays the
  identical fault timeline.

The multi-tenant extension applies the same contracts one layer up: each
tenant seed generates a small two-tenant facility (a heavy batch job plus a
seeded stream of light jobs, under either co-scheduling policy), and the
tests replay the merged job + rebalance timelines to check that the
scheduler's core grants conserve the facility capacity, that fixed seeds
reproduce the job timeline event for event, and that the coalescing fast
path stays bit-identical with two tenants contending.

The harness is seeded, not fuzzing: failures reproduce by seed number.
"""

from __future__ import annotations

import json
import math
import random
from functools import lru_cache

import pytest

from repro import sanitize
from repro.bench.experiments import (
    elastic_burst_pipeline,
    elastic_default_policy,
    model_driven_default_policy,
)
from repro.elastic.policy import RebalanceEvent
from repro.faults import FaultEvent, FaultPlan
from repro.sweep.store import result_payload
from repro.tenants import (
    POLICIES,
    ArrivalProcess,
    JobEvent,
    JobSpec,
    TenantScheduler,
    TenantSpec,
    job_queue,
    run_tenants,
)
from repro.workflow.runner import (
    PipelineRunner,
    pipeline_simulation_only_time,
    run_pipeline,
)

SEEDS = tuple(range(8))


@lru_cache(maxsize=None)
def scenario(seed: int):
    """The deterministic random pipeline of one seed."""
    rng = random.Random(seed)
    pipeline = elastic_burst_pipeline(
        sim_cores=rng.choice((128, 192, 256)),
        steps=rng.choice((6, 8, 10)),
        burst_factor=rng.choice((4.0, 8.0, 12.0)),
    )
    policy = rng.choice(
        (None, elastic_default_policy(), model_driven_default_policy())
    )
    if policy is not None:
        pipeline = pipeline.replace(elastic=policy)
    interval = rng.choice((None, 1, 2, 4))
    pipeline = pipeline.replace(
        stages=tuple(
            s.replace(checkpoint_interval=interval) if s.name == "simulation" else s
            for s in pipeline.stages
        )
    )
    if seed % 2 == 0:
        plan = FaultPlan.seeded(
            f"invariants/{seed}",
            ("simulation",),
            horizon=pipeline_simulation_only_time(pipeline),
            couplings=(pipeline.couplings[0].name,),
            crashes=rng.choice((1, 2)),
            seed=seed + 1,
        )
        pipeline = pipeline.replace(faults=plan)
    return pipeline


@lru_cache(maxsize=None)
def completed_runner(seed: int) -> PipelineRunner:
    """One completed (fast-path) run of the seed's pipeline."""
    runner = PipelineRunner(scenario(seed))
    runner.result = runner.run()
    return runner


@pytest.mark.parametrize("seed", SEEDS)
def test_fast_and_slow_paths_persist_equal_payloads(seed):
    pipeline = scenario(seed)
    fast = result_payload(run_pipeline(pipeline.replace(coalesce=True)))
    slow = result_payload(run_pipeline(pipeline.replace(coalesce=False)))
    assert fast == slow
    # Sanitized vs plain step: the same body, wrapped or bare.  Under
    # REPRO_SANITIZE=1 both sides are sanitized and this checks replay.
    guarded = sanitize.guards_installed()
    try:
        sanitized = result_payload(run_pipeline(pipeline.replace(sanitize=True)))
    finally:
        if not guarded:
            sanitize.uninstall_guards()
    assert sanitized == fast
    assert sanitized["stats"]["events_processed"] == fast["stats"]["events_processed"]


@pytest.mark.parametrize("seed", SEEDS)
def test_rebalance_timeline_conserves_cores_and_shares(seed):
    runner = completed_runner(seed)
    ctrl = runner.elastic_controller
    if ctrl is None:
        pytest.skip("seed generated a static pipeline")
    allocations = dict(ctrl.baseline)
    shares = {name: 1.0 for name in ctrl.bandwidth_shares}
    for event in ctrl.timeline:
        if event.kind == "stage_resize":
            allocations[event.donor] -= event.amount
            allocations[event.receiver] += event.amount
            assert allocations[event.donor] > 0
        elif event.kind == "bandwidth_lease":
            shares[event.donor] -= event.amount
            shares[event.receiver] += event.amount
            assert shares[event.donor] > 0
    # Exact replay: the controller applies the identical +=/-= sequence, so
    # the final holdings must match bit for bit, not approximately.
    assert allocations == ctrl.allocations
    assert shares == ctrl.bandwidth_shares
    assert math.fsum(allocations.values()) == pytest.approx(ctrl.total_cores)


@pytest.mark.parametrize("seed", SEEDS)
def test_timelines_are_monotone_and_bounded_by_the_run(seed):
    runner = completed_runner(seed)
    result = runner.result
    for events in (result.rebalances, result.faults):
        times = [event.time for event in events]
        assert times == sorted(times)
        for when in times:
            assert 0.0 <= when <= result.end_to_end_time
    assert result.end_to_end_time > 0.0
    assert result.stats["events_processed"] > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_persisted_payload_survives_a_json_round_trip(seed):
    payload = result_payload(completed_runner(seed).result)
    assert json.loads(json.dumps(payload, sort_keys=True)) == payload
    for raw in payload.get("faults", ()):
        event = FaultEvent.from_dict(raw)
        assert event.as_dict() == raw
    for raw in payload.get("rebalances", ()):
        event = RebalanceEvent.from_dict(raw)
        assert event.as_dict() == raw


@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_fault_scenarios_replay_their_exact_timeline(seed):
    pipeline = scenario(seed)
    if pipeline.faults is None:
        pytest.skip("seed generated a fault-free pipeline")
    first = completed_runner(seed).result
    second = run_pipeline(pipeline)
    assert first.faults, "the seeded plan must actually fire"
    assert first.faults == second.faults
    assert first.end_to_end_time == second.end_to_end_time
    assert first.stats["events_processed"] == second.stats["events_processed"]


def test_every_seed_exercises_both_sides_of_each_axis():
    """The seed set must cover faulty/fault-free and elastic/static cases."""
    pipelines = [scenario(seed) for seed in SEEDS]
    assert any(p.faults is not None for p in pipelines)
    assert any(p.faults is None for p in pipelines)
    assert any(p.elastic is not None for p in pipelines)
    assert any(p.elastic is None for p in pipelines)


# -- the multi-tenant extension ----------------------------------------------
TENANT_SEEDS = tuple(range(4))


@lru_cache(maxsize=None)
def tenant_scenario(seed: int) -> TenantSpec:
    """The deterministic two-tenant facility of one seed.

    Policies alternate by construction so both sides of the axis are always
    covered; odd seeds put an elastic controller *inside* the light jobs so
    the facility's tenant scale composes with the controller's allocation
    scale in at least half the scenarios.
    """
    rng = random.Random(1000 + seed)
    heavy = elastic_burst_pipeline(
        sim_cores=rng.choice((192, 213)),
        total_cores=320,
        steps=rng.choice((4, 6)),
    )
    light = elastic_burst_pipeline(
        sim_cores=85,
        total_cores=128,
        steps=rng.choice((2, 3)),
        representative_sim_ranks=4,
    )
    if seed % 2:
        light = light.replace(elastic=elastic_default_policy())
    arrivals = ArrivalProcess.bursty(
        count=2, rate=1.0, burst_size=2, start=rng.choice((0.2, 0.7))
    )
    jobs = (JobSpec("heavy/0", "heavy", heavy, arrival=0.0),) + job_queue(
        "light", light, arrivals, seed=seed + 1
    )
    return TenantSpec(
        jobs=jobs,
        policy=POLICIES[seed % len(POLICIES)],
        capacity_cores=384,
        epoch_seconds=0.25,
        label=f"invariants/tenants/{seed}",
    )


@lru_cache(maxsize=None)
def completed_tenant_scheduler(seed: int) -> TenantScheduler:
    """One completed facility run of the seed's tenant scenario."""
    scheduler = TenantScheduler(tenant_scenario(seed))
    scheduler.result = scheduler.run()
    return scheduler


@pytest.mark.parametrize("seed", TENANT_SEEDS)
def test_tenant_grants_conserve_capacity_on_the_merged_timeline(seed):
    """Replaying job + rebalance events together conserves every ledger.

    The facility ledger: at each instant a ``share`` event fires, the fair
    scheduler's active grants must water-fill to ``min(capacity, demand)``;
    under FCFS the admitted demands must fit the capacity exactly (integer
    arithmetic, no tolerance) and shares must never move at all.  The
    merged job-level ledger: every rebalance a job's own elastic controller
    applied must land inside that job's [admit, complete] facility window.
    """
    scheduler = completed_tenant_scheduler(seed)
    spec = scheduler.spec
    capacity = float(spec.capacity)

    admit_time = {e.job: e.time for e in scheduler.timeline if e.kind == "admitted"}
    finish_time = {e.job: e.time for e in scheduler.timeline if e.kind == "completed"}
    merged = [(event.time, "job", event.job, event) for event in scheduler.timeline]
    for name, result in scheduler.job_results.items():
        for event in result.rebalances:
            merged.append((admit_time[name] + event.time, "rebalance", name, event))
    merged.sort(key=lambda item: item[0])
    assert [t for t, *_ in merged] == sorted(t for t, *_ in merged)

    demand = {}
    active = set()
    for when, source, name, event in merged:
        if source == "rebalance":
            assert admit_time[name] <= when <= finish_time[name]
            continue
        if event.kind == "admitted":
            demand[name] = event.detail["demand"]
            active.add(name)
            if spec.policy == "fcfs":
                # Dedicated admission: integer demands, exact fit, no slack.
                assert sum(int(demand[n]) for n in active) <= int(capacity)
        elif event.kind == "share":
            assert spec.policy == "fair", "FCFS must never move a share"
        elif event.kind == "completed":
            active.discard(name)
    # Conservation at each share instant, with all same-time events applied:
    # the water-filled grants of the active set sum to the wet capacity.
    share_instants = sorted({e.time for e in scheduler.timeline if e.kind == "share"})
    for instant in share_instants:
        running = {
            e.job: e.detail["demand"]
            for e in scheduler.timeline
            if e.kind == "admitted" and e.time <= instant
        }
        for e in scheduler.timeline:
            if e.kind == "completed" and e.time <= instant:
                running.pop(e.job, None)
        grants = {}
        for e in scheduler.timeline:
            if e.job in running and e.time <= instant:
                if e.kind == "admitted":
                    grants[e.job] = e.detail["share"] * e.detail["demand"]
                elif e.kind == "share":
                    grants[e.job] = e.detail["grant"]
        wet = min(capacity, sum(running.values()))
        assert math.fsum(grants.values()) == pytest.approx(wet)


@pytest.mark.parametrize("seed", TENANT_SEEDS)
def test_tenant_timelines_replay_identically_under_fixed_seeds(seed):
    first = completed_tenant_scheduler(seed)
    second = TenantScheduler(tenant_scenario(seed))
    result = second.run()
    assert first.timeline == second.timeline
    assert first.timeline, "the scenario must actually record a timeline"
    assert first.result.end_to_end_time == result.end_to_end_time
    assert first.result.stats["events_processed"] == result.stats["events_processed"]
    for raw in result_payload(result).get("jobs", ()):
        event = JobEvent.from_dict(raw)
        assert event.as_dict() == raw


@pytest.mark.parametrize("seed", TENANT_SEEDS)
def test_tenant_fast_and_slow_paths_persist_equal_payloads(seed):
    spec = tenant_scenario(seed)

    def with_coalesce(flag: bool) -> TenantSpec:
        return spec.replace(
            jobs=tuple(
                job.replace(pipeline=job.pipeline.replace(coalesce=flag))
                for job in spec.jobs
            )
        )

    fast = result_payload(run_tenants(with_coalesce(True)))
    slow = result_payload(run_tenants(with_coalesce(False)))
    assert fast == slow


def test_every_tenant_seed_exercises_both_policies():
    """The tenant seed set must cover FCFS and fair, elastic and static jobs."""
    specs = [tenant_scenario(seed) for seed in TENANT_SEEDS]
    assert {spec.policy for spec in specs} == set(POLICIES)
    elastic_jobs = [
        job.pipeline.elastic is not None for spec in specs for job in spec.jobs
    ]
    assert any(elastic_jobs) and not all(elastic_jobs)
