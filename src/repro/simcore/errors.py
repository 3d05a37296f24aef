"""The exception type raised by the discrete-event simulation kernel."""

from __future__ import annotations


class SimulationError(RuntimeError):
    """The error the simulation kernel raises.

    Raised for misuse of the kernel API (triggering an event twice, running a
    finished environment, yielding a non-event from a process, ...).  Model
    code is encouraged to let these propagate: they indicate a bug in the
    model, not a property of the simulated system.
    """
