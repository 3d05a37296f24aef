"""Event primitives for the discrete-event kernel.

The design follows the classic process-interaction style: model code is
written as Python generator functions ("processes") that ``yield`` events.
When a yielded event is processed by the :class:`~repro.simcore.engine.Environment`,
the process resumes with the event's value (or with an exception if the event
failed).
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, List, Optional

from repro import sanitize as _sanitize
from repro.simcore.errors import SimulationError

if TYPE_CHECKING:
    from repro.simcore.engine import Environment

#: The generator type of a simulation process: yields events, receives their
#: values back, and may return a result (surfaced as the process's value).
ProcessGenerator = Generator["Event", Any, Any]

__all__ = [
    "PENDING",
    "URGENT",
    "NORMAL",
    "ProcessGenerator",
    "Event",
    "Timeout",
    "Initialize",
    "Process",
    "AllOf",
]

#: Sentinel for an event value that has not been set yet.
PENDING = object()

#: Scheduling priority for events that must run before same-time events.
URGENT = 0
#: Default scheduling priority.
NORMAL = 1


class Event:
    """A single occurrence in simulated time that processes may wait on.

    An event goes through three states:

    1. *pending* — created, not yet scheduled;
    2. *triggered* — scheduled to occur at a specific simulation time with a
       value (success) or exception (failure);
    3. *processed* — the environment has reached the event's time and invoked
       its callbacks.

    Events are allocated on every timeout, message and process step of a
    simulation, so the whole hierarchy uses ``__slots__``.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._defused = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """``True`` once the event has been scheduled with a value."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """``True`` once the event's callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """``True`` if the event succeeded (only valid once triggered)."""
        if self._ok is None:
            raise SimulationError("ok is not defined for untriggered events")
        return self._ok

    @property
    def value(self) -> Any:
        """The value of the event (the exception object for failed events)."""
        if self._value is PENDING:
            raise SimulationError("value is not available for untriggered events")
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value`` at the current time."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # Inlined zero-delay schedule (succeed is the hottest trigger path).
        env = self.env
        heappush(env._queue, (env._now, NORMAL, next(env._eid), self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception`` at the current time."""
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    # -- misc -----------------------------------------------------------
    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback(event)`` to run when the event is processed."""
        if self.callbacks is None:
            raise SimulationError(f"{self!r} has already been processed")
        self.callbacks.append(callback)

    def __repr__(self) -> str:
        state = (
            "processed"
            if self.processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} ({state}) at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after its creation."""

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        super().__init__(env)
        self._delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, delay=delay)

    @property
    def delay(self) -> float:
        """The delay the timeout was created with."""
        return self._delay

    def __repr__(self) -> str:
        return f"<Timeout delay={self._delay!r} at {id(self):#x}>"


class Initialize(Event):
    """Internal event used to start a newly created :class:`Process`."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self._ok = True
        self._value = None
        assert self.callbacks is not None  # freshly created, never processed
        self.callbacks.append(process._resume)
        env.schedule(self, priority=URGENT)


class Process(Event):
    """Wraps a generator and drives it through the event loop.

    A ``Process`` is itself an :class:`Event` that triggers when the generator
    returns (successfully, with the return value) or raises (failure).
    """

    __slots__ = ("_generator",)

    def __init__(self, env: "Environment", generator: ProcessGenerator):
        if not hasattr(generator, "throw"):
            raise SimulationError(
                f"{generator!r} is not a generator; did you forget to call the "
                "process function?"
            )
        super().__init__(env)
        self._generator = generator
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """``True`` while the underlying generator has not finished."""
        return self._value is PENDING

    # -- generator stepping ---------------------------------------------
    def _resume(self, event: Event) -> None:
        env = self.env
        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    # The waiter acknowledges the failure by having it thrown
                    # into its frame.
                    event._defused = True
                    next_event = self._generator.throw(event._value)
            except StopIteration as exc:
                self._ok = True
                self._value = exc.value
                env.schedule(self)
                break
            except BaseException as exc:  # noqa: BLE001 - propagate via event
                self._ok = False
                self._value = exc
                env.schedule(self)
                break

            if not isinstance(next_event, Event):
                exc = SimulationError(
                    f"process yielded a non-event object {next_event!r}"
                )
                self._ok = False
                self._value = exc
                env.schedule(self)
                break

            if next_event.callbacks is not None:
                # The event has not been processed yet; park until it is.
                next_event.callbacks.append(self._resume)
                break
            # The event was already processed: loop immediately with its value.
            event = next_event

    def __repr__(self) -> str:
        name = getattr(self._generator, "__name__", str(self._generator))
        return f"<Process({name}) at {id(self):#x}>"


class AllOf(Event):
    """Triggers once *all* child events are processed (``MPI_Waitall``-like).

    The value is a dict mapping each child event to its value, in the order
    the children were supplied.  The first child to fail fails the
    condition with that child's exception.
    """

    __slots__ = ("_events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        if env._sanitize:
            # A condition's trigger order follows its children's schedule
            # order; building one from a set would bake hash-salted
            # iteration order into the event heap.
            _sanitize.check_ordered(events, "AllOf(events=...)")
        self._events: List[Event] = list(events)
        self._count = 0

        for ev in self._events:
            if ev.env is not env:
                raise SimulationError("cannot mix events from different environments")

        if not self._events:
            self.succeed({})
            return

        for ev in self._events:
            if ev.callbacks is None:
                self._check(ev)
            else:
                ev.add_callback(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event._defused = True
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        elif self._count >= len(self._events):
            # Every child has been processed (a callback runs after its
            # event is marked processed), so each contributes its value.
            self.succeed({ev: ev._value for ev in self._events})

    def __len__(self) -> int:
        return len(self._events)
