"""Discrete-event simulation kernel used by the cluster substrate.

The :mod:`repro.simcore` package provides a small, dependency-free
discrete-event simulation engine in the style of SimPy.  It is the foundation
on which the HPC cluster model (:mod:`repro.cluster`), the simulated MPI layer
(:mod:`repro.simmpi`), the baseline transport models (:mod:`repro.transports`)
and the simulated Zipper runtime are built.

The kernel is deliberately compact but complete:

* :class:`Environment` — the simulation clock and event loop.
* :class:`Event`, :class:`Timeout`, :class:`Process` — the event primitives.
* :class:`AllOf` / :class:`AnyOf` — composite events (used for ``MPI_Waitall``
  style semantics).
* :class:`Resource`, :class:`Store`, :class:`Container` — queuing resources.
* :class:`Mutex`, :class:`Semaphore`, :class:`SimBarrier`,
  :class:`ConditionVar` — synchronisation primitives (used for the lock
  services of DataSpaces/DIMES and the producer-buffer condition variables of
  Zipper's work-stealing writer thread).
* :class:`RandomStreams` — named, reproducible random-number streams.
* :class:`TimeSeriesMonitor`, :class:`TallyMonitor` — statistics collection.
* :class:`PeriodicController`, :class:`CounterDeltas`, :class:`PIDSmoother` —
  periodic control-loop events, per-epoch counter deltas and PID smoothing
  (used by the elastic adaptation layer).

Example
-------
>>> from repro.simcore import Environment, Timeout
>>> env = Environment()
>>> log = []
>>> def proc(env):
...     yield Timeout(env, 1.5)
...     log.append(env.now)
>>> _ = env.process(proc(env))
>>> env.run()
>>> log
[1.5]
"""

from repro.simcore.errors import (
    SimulationError,
    Interrupt,
    StopProcess,
)
from repro.simcore.events import (
    Event,
    Timeout,
    Process,
    AllOf,
    AnyOf,
    ConditionEvent,
)
from repro.simcore.engine import Environment, EmptySchedule
from repro.simcore.resources import (
    Resource,
    PriorityResource,
    Store,
    FilterStore,
    Container,
)
from repro.simcore.sync import (
    Mutex,
    Semaphore,
    SimBarrier,
    ConditionVar,
    OneShotSignal,
)
from repro.simcore.rng import RandomStreams
from repro.simcore.monitor import TimeSeriesMonitor, TallyMonitor
from repro.simcore.control import PeriodicController, CounterDeltas, PIDSmoother

__all__ = [
    "SimulationError",
    "Interrupt",
    "StopProcess",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "ConditionEvent",
    "Environment",
    "EmptySchedule",
    "Resource",
    "PriorityResource",
    "Store",
    "FilterStore",
    "Container",
    "Mutex",
    "Semaphore",
    "SimBarrier",
    "ConditionVar",
    "OneShotSignal",
    "RandomStreams",
    "TimeSeriesMonitor",
    "TallyMonitor",
    "PeriodicController",
    "CounterDeltas",
    "PIDSmoother",
]
