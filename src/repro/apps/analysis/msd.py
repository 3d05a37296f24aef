"""Mean-squared displacement (MSD) analysis for the molecular-dynamics workflow.

MSD measures the average squared deviation of particle positions from a
reference configuration over time — the paper couples it with the LAMMPS
Lennard-Jones melt to characterise how far atoms wander as the solid melts.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

__all__ = ["mean_squared_displacement", "MeanSquaredDisplacement"]


def mean_squared_displacement(
    positions: np.ndarray,
    reference: np.ndarray,
    box_length: Optional[float] = None,
) -> float:
    """MSD of ``positions`` relative to ``reference``.

    With ``box_length`` given, displacements are wrapped by the minimum-image
    convention (positions supplied wrapped into the periodic box); without it,
    positions are taken as unwrapped coordinates.
    """
    pos = np.asarray(positions, dtype=float)
    ref = np.asarray(reference, dtype=float)
    if pos.shape != ref.shape:
        raise ValueError("positions and reference must have the same shape")
    if pos.ndim != 2 or pos.shape[1] not in (2, 3):
        raise ValueError("positions must be (N, 2) or (N, 3)")
    disp = pos - ref
    if box_length is not None:
        if box_length <= 0:
            raise ValueError("box_length must be positive")
        disp -= box_length * np.round(disp / box_length)
    return float(np.mean(np.sum(disp * disp, axis=1)))


class MeanSquaredDisplacement:
    """Streaming MSD: consumes per-step position blocks and records the curve."""

    def __init__(self, reference: np.ndarray, box_length: Optional[float] = None):
        self.reference = np.array(reference, dtype=float)
        if self.reference.ndim != 2 or self.reference.shape[1] not in (2, 3):
            raise ValueError("reference must be (N, 2) or (N, 3)")
        self.box_length = box_length
        self._per_step: Dict[int, List[float]] = {}

    def update(self, step: int, positions: np.ndarray, offset: int = 0) -> float:
        """Fold in one block of particle positions for time ``step``.

        ``offset`` is the index of the first particle contained in the block,
        so blocks produced by different ranks (or split into fine-grain pieces)
        can be analysed independently.
        """
        pos = np.asarray(positions, dtype=float)
        if pos.ndim != 2:
            raise ValueError("positions must be two-dimensional")
        ref = self.reference[offset : offset + pos.shape[0]]
        if ref.shape != pos.shape:
            raise ValueError("block does not align with the reference configuration")
        value = mean_squared_displacement(pos, ref, self.box_length)
        self._per_step.setdefault(step, []).append(value)
        return value

    def curve(self) -> Dict[int, float]:
        """MSD per time step (averaging over the blocks of that step)."""
        return {step: float(np.mean(vals)) for step, vals in sorted(self._per_step.items())}

    def is_monotonic(self, tolerance: float = 0.0) -> bool:
        """Whether the MSD curve is non-decreasing (true for a melting solid)."""
        curve = list(self.curve().values())
        return all(b >= a - tolerance for a, b in zip(curve, curve[1:]))
