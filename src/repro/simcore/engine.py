"""The simulation environment: clock, event queue, and run loop."""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Any, Callable, List, Optional, Tuple

from repro import sanitize as _sanitize
from repro.simcore.errors import SimulationError
from repro.simcore.events import (
    Event,
    NORMAL,
    PENDING,
    Process,
    ProcessGenerator,
    Timeout,
)

__all__ = ["Environment", "EmptySchedule", "Infinity"]

#: A time value larger than any event time the models use.
Infinity = float("inf")


class EmptySchedule(Exception):
    """Raised internally by :meth:`Environment.step` when no events remain."""


class Environment:
    """Holds the simulation clock and executes events in time order.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock (seconds by convention across
        this code base).
    sanitize:
        Run with the :mod:`repro.sanitize` determinism traps armed:
        clock/global-RNG guards during event execution, crediting
        validation, and order-sensitivity checks.  ``None`` (the default)
        defers to the ``REPRO_SANITIZE`` environment variable.  Both modes
        run the same step body; a sanitized environment wraps it in the
        sanitizer's event window, chosen once per ``run`` call rather than
        tested per event.

    Notes
    -----
    Ties in event time are broken first by scheduling *priority* (process
    initialisation runs before normal events), then by insertion order,
    which keeps the simulation fully deterministic.
    """

    __slots__ = (
        "_now",
        "_queue",
        "_eid",
        "_events_processed",
        "_solo_callback",
        "_sanitize",
        "_in_event",
    )

    def __init__(
        self,
        initial_time: float = 0.0,
        *,
        sanitize: Optional[bool] = None,
    ):
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._eid = count()
        self._events_processed = 0
        self._sanitize = _sanitize.default_enabled() if sanitize is None else bool(sanitize)
        self._in_event = False
        if self._sanitize:
            _sanitize.install_guards()
        # True while step() is executing the callback of an event that had
        # exactly one.  In that window, a freshly created event that (a) is
        # already triggered and (b) faces an empty same-time horizon (no
        # queued event at the current instant) is guaranteed to be the very
        # next pop with nothing running in between — so resources may
        # complete it in place (see Store._put/_get, Resource._do_request)
        # and let the creator continue synchronously, which is
        # order-identical to the queue trip.
        self._solo_callback = False

    # -- clock and bookkeeping -------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events processed so far (useful for model stats)."""
        return self._events_processed

    @property
    def sanitize(self) -> bool:
        """Whether the runtime determinism sanitizer is armed (see ``repro.sanitize``)."""
        return self._sanitize

    def __repr__(self) -> str:
        return (
            f"<Environment t={self._now:.6g} queued={len(self._queue)} "
            f"processed={self._events_processed}>"
        )

    # -- event creation helpers ------------------------------------------
    def event(self) -> Event:
        """Create a new pending :class:`Event` bound to this environment."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator) -> Process:
        """Start a new process from ``generator`` and return its event."""
        return Process(self, generator)

    def sleep(self, delay: float) -> Timeout:
        """A :class:`Timeout` firing ``delay`` from now (hot-path ``timeout``).

        Equivalent to ``timeout(delay)`` but built without the constructor
        chain — every compute, transfer and I/O wait goes through here.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        event = self._new_timeout(delay)
        heappush(self._queue, (self._now + delay, NORMAL, next(self._eid), event))
        return event

    def sleep_until(self, when: float) -> Timeout:
        """A :class:`Timeout` firing at the *absolute* time ``when``.

        The coalescing hook: a batch fast-forward computes its exact end time
        with the same float arithmetic the per-call path would use, then jumps
        the clock straight to it — scheduling by absolute time avoids the
        ``now + (end - now)`` round trip that would break bit-identity.
        """
        if when < self._now:
            raise SimulationError(f"sleep_until({when!r}) lies before now ({self._now!r})")
        event = self._new_timeout(when - self._now)
        heappush(self._queue, (when, NORMAL, next(self._eid), event))
        return event

    def _new_timeout(self, delay: float) -> Timeout:
        """A fresh, unscheduled :class:`Timeout` (inlined ``Timeout.__init__``)."""
        event = Timeout.__new__(Timeout)
        event.env = self
        event.callbacks = []
        event._value = None
        event._ok = True
        event._defused = False
        event._delay = delay
        return event

    # -- fast-path accounting ---------------------------------------------
    def credit_events(self, count: int) -> None:
        """Account ``count`` events that a fast path elided.

        The engine's fast paths (core grants on guaranteed-uncontended nodes,
        compute coalescing) skip queue trips whose processing would have had
        no observable effect except advancing :attr:`events_processed`.  Each
        fast path credits exactly the events the equivalent slow path would
        have consumed, so the counter stays a *model* property — bit-stable
        for fixed seeds — rather than an engine implementation detail.

        Under sanitize the count is validated: it must be a positive
        integer, credited while an event is executing (a fast path only
        ever elides queue trips from inside one) — anything else corrupts
        the machine-independent count and traps immediately instead of
        surfacing as a bit-identity diff three layers up.
        """
        if self._sanitize:
            if count.__class__ is not int or count <= 0:
                raise _sanitize.SanitizerTrap(
                    f"sanitizer: credit_events({count!r}) — elided-event "
                    "credits must be positive ints (docs/performance.md)"
                )
            if not self._in_event:
                raise _sanitize.SanitizerTrap(
                    "sanitizer: credit_events() outside event execution — "
                    "fast paths elide queue trips only from within step()"
                )
        self._events_processed += count

    def trigger_inplace(self, event: Event, value: Any = None) -> None:
        """Trigger a freshly created event, completing it in place when safe.

        The shared trigger of the resource layer's fast paths, keeping the
        safety proof in one audited spot.  The event must be untriggered and
        callback-free (just created, no reference escaped).  When the engine
        is executing a solo callback (:attr:`_solo_callback`) and no other
        event is queued at the current instant, the event's queue trip would
        be the immediate next pop with nothing running in between — so it is
        completed in place (the elided pop is counted) and its creator
        continues synchronously, order-identical to the queued behaviour.
        Otherwise the event is scheduled normally via ``succeed``.
        """
        queue = self._queue
        if self._solo_callback and (not queue or queue[0][0] > self._now):
            event._ok = True
            event._value = value
            event.callbacks = None
            self._events_processed += 1
        else:
            event.succeed(value)

    def complete(self, event: Event) -> None:
        """Process a callback-free event in place, skipping the queue.

        For bookkeeping events that nothing can ever wait on (the event is
        triggered and completed within its creator, before any reference
        escapes), a queue trip only burns a heap slot.  The event must carry
        no callbacks and must already hold its outcome; it is marked
        processed and counted exactly as if it had been popped normally.
        """
        if event.callbacks:
            raise SimulationError("complete() requires an event with no callbacks")
        if event._value is PENDING:
            raise SimulationError("complete() requires an already-triggered event")
        event.callbacks = None
        self._events_processed += 1

    # -- scheduling --------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Place ``event`` on the queue ``delay`` time units in the future."""
        # Hot path: every timeout, message and process resumption goes through
        # here, so the zero-delay common case skips the float comparison work.
        if delay:
            if delay < 0:
                raise SimulationError(f"negative delay {delay!r}")
            when = self._now + delay
        else:
            when = self._now
        heappush(self._queue, (when, priority, next(self._eid), event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the queue is empty."""
        if not self._queue:
            return Infinity
        return self._queue[0][0]

    def step(self) -> None:
        """Process exactly one event (advancing the clock to its time)."""
        self._stepper()()

    def _stepper(self) -> Callable[[], None]:
        """The step body for this environment, picked once per run call."""
        return self._sanitized_step if self._sanitize else self._step

    def _step(self) -> None:
        """Pop the next event, advance the clock to it and run its callbacks."""
        queue = self._queue
        if not queue:
            raise EmptySchedule()
        when, _prio, _eid, event = heappop(queue)

        self._now = when
        callbacks = event.callbacks
        if callbacks is None:
            raise SimulationError(f"{event!r} was scheduled twice")
        event.callbacks = None
        if callbacks:
            if len(callbacks) == 1:
                self._solo_callback = True
                try:
                    callbacks[0](event)
                finally:
                    self._solo_callback = False
            else:
                for callback in callbacks:
                    callback(event)
        self._events_processed += 1

        if not event._ok and not event._defused:
            # Nobody waited on a failed event: surface the error to the caller
            # rather than silently dropping it.
            raise event._value

    def _sanitized_step(self) -> None:
        """:meth:`_step` inside the :mod:`repro.sanitize` event window.

        The clock/RNG guards trap and crediting is validated (``_in_event``)
        while the event executes; ``try/finally`` so a trap cannot leave
        them armed.
        """
        _sanitize.enter_step()
        self._in_event = True
        try:
            self._step()
        finally:
            self._in_event = False
            _sanitize.exit_step()

    def run(self, until: Optional[Any] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            * ``None`` — run until no events remain;
            * a number — run until the clock reaches that time;
            * an :class:`Event` — run until that event has been processed and
              return its value.
        """
        if until is None:
            # Drain the queue (the common whole-simulation run).
            step = self._stepper()
            while self._queue:
                step()
            return None

        if isinstance(until, Event):
            stop_event = until
            step = self._stepper()
            while stop_event.callbacks is not None:
                if not self._queue:
                    raise SimulationError(
                        "run(until=event) exhausted the schedule before the "
                        "event was triggered"
                    )
                step()
            if not stop_event._ok:
                stop_event._defused = True
                raise stop_event._value
            return stop_event._value

        stop_time = float(until)
        if stop_time < self._now:
            raise SimulationError(
                f"until={stop_time!r} lies before the current time {self._now!r}"
            )
        queue = self._queue
        step = self._stepper()
        while queue and queue[0][0] <= stop_time:
            step()
        self._now = stop_time
        return None

    def run_bounded(self, stop_event: Event, stop_time: float) -> bool:
        """Run until ``stop_event`` is processed or the clock passes ``stop_time``.

        The segment primitive of the tenant co-scheduling layer: a job's
        private environment is advanced epoch by epoch, stopping either at
        the job's own completion event (return ``True``) or at the facility
        epoch boundary (return ``False``), whichever the event queue reaches
        first.

        The two outcomes deliberately mirror the two ``run(until=...)``
        modes they split the difference between:

        * when ``stop_event`` is processed, the clock is left at the event's
          own time — exactly as ``run(until=event)`` leaves it — so a
          completed segment is indistinguishable from an unsegmented run
          (no post-completion events are processed, ``events_processed`` and
          ``now`` match bit for bit);
        * otherwise the queue is drained through ``stop_time`` and the clock
          is then pinned to it, exactly as ``run(until=time)`` does, so the
          next segment resumes from the boundary.

        Raises :class:`SimulationError` if the schedule empties before the
        event triggers, and re-raises the event's value if it failed —
        the same contract as ``run(until=event)``.
        """
        bound = float(stop_time)
        if bound < self._now:
            raise SimulationError(
                f"stop_time={bound!r} lies before the current time {self._now!r}"
            )
        queue = self._queue
        step = self._stepper()
        while stop_event.callbacks is not None:
            if not queue:
                raise SimulationError(
                    "run_bounded exhausted the schedule before the event "
                    "was triggered"
                )
            if queue[0][0] > bound:
                self._now = bound
                return False
            step()
        if not stop_event._ok:
            stop_event._defused = True
            raise stop_event._value
        return True

    def run_all(self, max_events: Optional[int] = None) -> int:
        """Run until the queue drains, optionally bounded by ``max_events``.

        Returns the number of events processed by this call.  A bounded run is
        useful in tests that want to guard against accidental infinite event
        loops in a model.
        """
        processed = 0
        step = self._stepper()
        while self._queue:
            if max_events is not None and processed >= max_events:
                raise SimulationError(
                    f"run_all exceeded the budget of {max_events} events"
                )
            step()
            processed += 1
        return processed
