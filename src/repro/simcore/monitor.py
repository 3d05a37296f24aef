"""Statistics collection for simulation models.

:class:`TallyMonitor` keeps running statistics over discrete observations
(message sizes, per-block service times, stall durations).
"""

from __future__ import annotations

from typing import Optional

__all__ = ["TallyMonitor"]


class TallyMonitor:
    """Streaming mean/variance/min/max over scalar observations (Welford)."""

    def __init__(self, name: str = ""):
        self.name = name
        self.count = 0
        self.total = 0.0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def observe(self, value: float) -> None:
        """Fold one observation into the running statistics."""
        value = float(value)
        self.count += 1
        self.total += value
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        minimum = self.minimum
        maximum = self.maximum
        if minimum is None or maximum is None:
            self.minimum = self.maximum = value
        else:
            if value < minimum:
                self.minimum = value
            if value > maximum:
                self.maximum = value

    @property
    def mean(self) -> float:
        """Mean of the observations (0.0 before the first)."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Sample variance of the observations (0.0 below two)."""
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    def merge(self, other: "TallyMonitor") -> "TallyMonitor":
        """Return a new monitor combining this one with ``other``."""
        merged = TallyMonitor(self.name or other.name)
        for mon in (self, other):
            if mon.count == 0:
                continue
            if merged.count == 0:
                merged.count = mon.count
                merged.total = mon.total
                merged._mean = mon._mean
                merged._m2 = mon._m2
                merged.minimum = mon.minimum
                merged.maximum = mon.maximum
                continue
            n1, n2 = merged.count, mon.count
            delta = mon._mean - merged._mean
            total_n = n1 + n2
            merged._mean += delta * n2 / total_n
            merged._m2 += mon._m2 + delta * delta * n1 * n2 / total_n
            merged.count = total_n
            merged.total += mon.total
            # Both sides have count > 0 here, so their extrema are set.
            if merged.minimum is not None and mon.minimum is not None:
                merged.minimum = min(merged.minimum, mon.minimum)
            if merged.maximum is not None and mon.maximum is not None:
                merged.maximum = max(merged.maximum, mon.maximum)
        return merged

    def __repr__(self) -> str:
        return (
            f"<TallyMonitor {self.name!r} n={self.count} mean={self.mean:.6g} "
            f"min={self.minimum} max={self.maximum}>"
        )

