"""Campaign overhead bench: coordinator + local workers vs a plain sweep.

Registered as the ``campaign`` suite of ``python -m repro.bench``.  The
suite runs a small, fixed figure2 grid twice — once through a real
coordinator/worker campaign over localhost HTTP, once through a plain
serial :class:`~repro.sweep.runner.SweepRunner` — and reports the campaign
run's throughput as the measurement, with the protocol overhead (campaign
wall vs serial wall) stamped into the result's environment together with
the campaign wall's three phases (coordinator boot, work, stop).  It also
asserts the tentpole guarantee on every run: the campaign store's canonical
bytes must equal the serial store's (see ``docs/campaigns.md``).
"""

from __future__ import annotations

import platform
import tempfile
import threading
import time
from pathlib import Path
from typing import List, Optional, Tuple

from repro.campaign.coordinator import Campaign, CoordinatorServer
from repro.campaign.protocol import campaign_cases, resolve_spec, spec_descriptor
from repro.campaign.worker import CampaignWorker
from repro.sweep.runner import SweepRunner
from repro.sweep.store import ResultStore

__all__ = ["campaign_suite_cases", "run_campaign_suite"]

#: The grid the suite measures: small enough for CI, big enough to shard.
_DESCRIPTOR_KNOBS = {"figure": "figure2", "steps": 2, "sim_ranks": 2}

#: Local worker loops driven against the coordinator.
_WORKER_COUNT = 2


def _descriptor():
    knobs = dict(_DESCRIPTOR_KNOBS)
    figure = knobs.pop("figure")
    return spec_descriptor(figure, **knobs)


def campaign_suite_cases() -> List[Tuple[str, object]]:
    """The ``(label, config)`` list the campaign suite runs (prepared grid)."""
    return [(case.label, case.config) for case in campaign_cases(_descriptor())]


def run_campaign_suite(workers: int = 0, repeats: Optional[int] = None):
    """Measure the campaign path; returns a ``BenchResult`` for the harness.

    ``workers`` > 0 overrides the number of local campaign workers;
    ``repeats`` is accepted for harness symmetry but ignored (the comparison
    needs exactly one campaign run against one serial run).
    """
    from repro.bench.harness import BenchResult

    del repeats  # one campaign vs one serial run is the measurement
    descriptor = _descriptor()
    worker_count = workers if workers > 0 else _WORKER_COUNT

    with tempfile.TemporaryDirectory(prefix="campaign-bench-") as tmp:
        campaign_store = ResultStore(Path(tmp) / "campaign.jsonl")
        serial_store = ResultStore(Path(tmp) / "serial.jsonl")

        campaign = Campaign(
            descriptor, campaign_store, shard_size=2, lease_seconds=10.0
        )
        launched = time.perf_counter()
        server = CoordinatorServer(campaign).start()
        booted = time.perf_counter()
        try:
            crew = [
                threading.Thread(
                    target=CampaignWorker(server.url, name=f"bench-{i}").run,
                    name=f"campaign-bench-worker-{i}",
                    daemon=True,
                )
                for i in range(worker_count)
            ]
            for thread in crew:
                thread.start()
            for thread in crew:
                thread.join()
            worked = time.perf_counter()
        finally:
            server.stop()
        stopped = time.perf_counter()
        campaign_wall = stopped - launched

        # The single-host baseline: the raw spec through a default (reseeding,
        # traces-off) runner — running the already-prepared campaign cases
        # here would derive the seeds twice and change every config hash.
        start = time.perf_counter()
        serial = SweepRunner(workers=0, store=serial_store, trace=False)
        serial.run(resolve_spec(descriptor))
        serial_wall = time.perf_counter() - start

        identical = campaign_store.canonical_bytes() == serial_store.canonical_bytes()
        if not identical:
            raise RuntimeError(
                "campaign bench: canonical bytes of the campaign store differ "
                "from the serial baseline — the merge guarantee is broken"
            )

        events = 0
        sim_seconds = 0.0
        failed = 0
        records = campaign_store.canonical_records()
        for record in records:
            if not record.get("ok", True):
                failed += 1
                continue
            stats = record.get("stats", {})
            if isinstance(stats, dict):
                events += int(float(stats.get("events_processed", 0.0)))
            if record.get("failed", False):
                failed += 1
            else:
                end_to_end = float(record.get("end_to_end_time", 0.0))
                if end_to_end == end_to_end:  # not NaN
                    sim_seconds += end_to_end

    overhead_pct = (
        (campaign_wall / serial_wall - 1.0) * 100.0 if serial_wall > 0 else 0.0
    )
    return BenchResult(
        suite="campaign",
        wall_seconds=campaign_wall,
        events_processed=events,
        events_per_sec=events / campaign_wall if campaign_wall > 0 else 0.0,
        scenarios=len(records),
        failed_scenarios=failed,
        sim_seconds=sim_seconds,
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%S"),
        environment={
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "system": platform.system(),
            "workers": str(worker_count),
            "serial_wall_seconds": f"{serial_wall:.3f}",
            "boot_seconds": f"{booted - launched:.3f}",
            "work_seconds": f"{worked - booted:.3f}",
            "stop_seconds": f"{stopped - worked:.3f}",
            "overhead_pct": f"{overhead_pct:.1f}",
            "byte_identical": str(identical).lower(),
        },
    )
