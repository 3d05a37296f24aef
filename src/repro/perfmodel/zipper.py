"""The two-application analytical performance model of Section 4.4.

With ``P`` simulation cores, ``Q`` analysis cores, ``D`` bytes of total
simulation output split into ``nb = D / B`` fine-grain blocks, and per-block
times ``tc`` (compute), ``tm`` (transfer) and ``ta`` (analyse), the pipelined
Zipper workflow's end-to-end time is

    ``T_t2s = max(T_comp, T_transfer, T_analysis)``

with ``T_comp = tc * nb / P``, ``T_transfer = tm * nb / P`` and
``T_analysis = ta * nb / Q``; the pipeline start-up and drain times are
ignored because ``nb`` is much larger than the number of stages.  In Preserve
mode an additional store stage ``T_store`` (bounded by the parallel file
system's aggregate bandwidth) joins the ``max``.

The module also provides the makespans of the *non-integrated* and
*integrated* designs of Figure 11, and a per-block schedule generator used by
the pipeline benchmark and the documentation figures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "StageTimes",
    "PerformanceModel",
    "sequential_makespan",
    "pipeline_makespan",
    "pipeline_schedule",
]


@dataclass(frozen=True)
class StageTimes:
    """Per-block stage times (seconds per block on one core)."""

    compute: float
    transfer: float
    analysis: float
    store: float = 0.0

    def __post_init__(self) -> None:
        for name in ("compute", "transfer", "analysis", "store"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class PerformanceModel:
    """End-to-end time estimator for a Zipper workflow."""

    #: Simulation processor cores.
    P: int
    #: Analysis processor cores.
    Q: int
    #: Total simulation output in bytes.
    total_data: float
    #: Fine-grain block size in bytes.
    block_size: float
    #: Per-block stage times on one core.
    stage: StageTimes
    #: Aggregate file-system bandwidth in bytes/second (only used in Preserve
    #: mode when it is the binding constraint on the store stage).
    filesystem_bandwidth: Optional[float] = None
    #: Whether the Preserve mode's store stage participates.
    preserve: bool = False

    def __post_init__(self) -> None:
        if self.P <= 0 or self.Q <= 0:
            raise ValueError("P and Q must be positive")
        if self.total_data <= 0:
            raise ValueError("total_data must be positive")
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")
        if self.filesystem_bandwidth is not None and self.filesystem_bandwidth <= 0:
            raise ValueError("filesystem_bandwidth must be positive when given")

    # -- block accounting ----------------------------------------------------
    @property
    def num_blocks(self) -> int:
        """Total number of fine-grain blocks ``nb = ceil(D / B)``."""
        return int(math.ceil(self.total_data / self.block_size))

    @property
    def blocks_per_simulation_core(self) -> float:
        """Blocks each of the ``P`` simulation cores handles, ``nb / P``."""
        return self.num_blocks / self.P

    @property
    def blocks_per_analysis_core(self) -> float:
        """Blocks each of the ``Q`` analysis cores handles, ``nb / Q``."""
        return self.num_blocks / self.Q

    # -- stage times -----------------------------------------------------------
    @property
    def computation_time(self) -> float:
        """``T_comp = tc * nb / P``."""
        return self.stage.compute * self.blocks_per_simulation_core

    @property
    def transfer_time(self) -> float:
        """``T_transfer = tm * nb / P``."""
        return self.stage.transfer * self.blocks_per_simulation_core

    @property
    def analysis_time(self) -> float:
        """``T_analysis = ta * nb / Q``."""
        return self.stage.analysis * self.blocks_per_analysis_core

    @property
    def store_time(self) -> float:
        """Preserve-mode store stage: per-block store cost or PFS-bandwidth bound."""
        if not self.preserve:
            return 0.0
        per_core = self.stage.store * self.blocks_per_simulation_core
        if self.filesystem_bandwidth is None:
            return per_core
        bandwidth_bound = self.total_data / self.filesystem_bandwidth
        return max(per_core, bandwidth_bound)

    def breakdown(self) -> Dict[str, float]:
        """All stage times plus the resulting end-to-end estimate."""
        stages = {
            "simulation": self.computation_time,
            "transfer": self.transfer_time,
            "analysis": self.analysis_time,
        }
        if self.preserve:
            stages["store"] = self.store_time
        stages["end_to_end"] = self.time_to_solution()
        return stages

    def dominant_stage(self) -> str:
        """Name of the stage the pipeline is bound by."""
        stages = {
            "simulation": self.computation_time,
            "transfer": self.transfer_time,
            "analysis": self.analysis_time,
        }
        if self.preserve:
            stages["store"] = self.store_time
        return max(stages, key=stages.get)

    def time_to_solution(self) -> float:
        """``T_t2s = max(T_comp, T_transfer, T_analysis[, T_store])``."""
        t = max(self.computation_time, self.transfer_time, self.analysis_time)
        if self.preserve:
            t = max(t, self.store_time)
        return t

    def relative_error(self, measured: float) -> float:
        """|model - measured| / measured, used by the model-validation bench."""
        if measured <= 0:
            raise ValueError("measured time must be positive")
        return abs(self.time_to_solution() - measured) / measured


def sequential_makespan(num_blocks: int, stage_times: Sequence[float]) -> float:
    """Makespan of the *non-integrated* design (upper half of Figure 11).

    Every stage processes all ``num_blocks`` blocks before the next stage
    starts (simulate everything, write everything, read everything, analyse
    everything).
    """
    if num_blocks <= 0:
        raise ValueError("num_blocks must be positive")
    return float(num_blocks) * float(sum(stage_times))


def pipeline_makespan(num_blocks: int, stage_times: Sequence[float]) -> float:
    """Makespan of the *integrated* (pipelined) design (lower half of Figure 11).

    ``sum(stage_times)`` start-up plus ``(num_blocks - 1)`` iterations of the
    slowest stage.
    """
    if num_blocks <= 0:
        raise ValueError("num_blocks must be positive")
    times = [float(t) for t in stage_times]
    if not times:
        return 0.0
    return sum(times) + (num_blocks - 1) * max(times)


def pipeline_schedule(
    num_blocks: int, stage_times: Sequence[float], stage_names: Optional[Sequence[str]] = None
) -> List[Dict[str, Tuple[float, float]]]:
    """Start/end times of every (block, stage) pair in the pipelined design.

    Block ``i`` may begin stage ``s`` once block ``i`` finished stage ``s-1``
    *and* block ``i-1`` finished stage ``s`` (one block in flight per stage).
    Returns one dict per block mapping stage name to ``(start, end)``.
    """
    if num_blocks <= 0:
        raise ValueError("num_blocks must be positive")
    times = [float(t) for t in stage_times]
    names = list(stage_names) if stage_names is not None else [
        f"stage{i}" for i in range(len(times))
    ]
    if len(names) != len(times):
        raise ValueError("stage_names must match stage_times in length")
    schedule: List[Dict[str, Tuple[float, float]]] = []
    stage_free = [0.0] * len(times)
    for _block in range(num_blocks):
        entry: Dict[str, Tuple[float, float]] = {}
        prev_end = 0.0
        for s, (name, t) in enumerate(zip(names, times)):
            start = max(prev_end, stage_free[s])
            end = start + t
            stage_free[s] = end
            prev_end = end
            entry[name] = (start, end)
        schedule.append(entry)
    return schedule
