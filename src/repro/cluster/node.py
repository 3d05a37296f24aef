"""Compute-node model: cores and memory of one node."""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, List, Optional, Sequence, Union

from repro import sanitize
from repro.simcore import Container, Environment, RandomStreams, Resource, Timeout
from repro.cluster.spec import NodeSpec

if TYPE_CHECKING:
    from repro.simcore.resources import ContainerGet, ContainerPut

__all__ = ["ComputeNode"]


class _FastHolder:
    """Phantom core-slot holder used by the compute fast path.

    Occupies an entry in the core resource's user list (so occupancy stays
    visible to slow-path contenders) without any event machinery.  One
    instance per slot is never needed — list entries may alias because
    removal is positional over identical objects.
    """

    __slots__ = ()


_FAST_HOLDER = _FastHolder()


class ComputeNode:
    """One compute node: a pool of cores and a memory capacity.

    Application cost models express work in *seconds on one reference core*;
    :meth:`compute` converts that into simulated time on this node's cores
    (accounting for the node's relative core speed and optional jitter) while
    holding a core slot, so that oversubscription of a node is visible as
    queueing.

    The effective compute rate is *mutable*: an elastic controller can shift
    core share between stages mid-run by scaling the allocation of the nodes
    hosting each stage (:meth:`set_allocation_scale`).  The rate is cached
    (it sits on the per-phase hot path) and the setter is the single
    invalidation point, so any layer that changes allocations must go through
    it — never mutate ``spec.core_speed`` directly.
    """

    def __init__(
        self,
        env: Environment,
        node_id: int,
        spec: NodeSpec,
        rng: Optional[RandomStreams] = None,
        jitter_cv: float = 0.0,
    ):
        self.env = env
        self.node_id = node_id
        self.spec = spec
        self.rng = rng if rng is not None else RandomStreams(node_id)
        self.jitter_cv = float(jitter_cv)
        self.cores = Resource(env, capacity=spec.cores)
        self.memory = Container(env, capacity=float(spec.memory_bytes), init=0.0)
        self.busy_core_seconds = 0.0
        self._allocation_scale = 1.0
        self._fault_scale = 1.0
        self._tenant_scale = 1.0
        # Cached effective rate (reference seconds per simulated second);
        # invalidated only by the set_*_scale setters.
        self._rate = spec.core_speed
        #: Whether a fault (crash in progress, straggler window) currently
        #: impairs this node.  Pure observation for monitors and elastic
        #: controllers; only the fault injector sets it.
        self.degraded = False
        #: Modelled ranks currently hosted on this node.  Seeded from the
        #: static placement by the pipeline runner and updated when elastic
        #: rank spawns/retires place assist ranks, so spawn-time placement
        #: can pick the least-loaded node of a stage's range.
        self.hosted_ranks = 0
        # Uncontended-compute fast path: claimed concurrency bound and the
        # derived flag (see claim_compute_slots).  Off until an owner that
        # knows the node's whole workload declares the bound.
        self._claimed_slots = 0
        self._fast_path = False

    @property
    def allocation_scale(self) -> float:
        """How many real cores back each modelled rank, relative to the static plan."""
        return self._allocation_scale

    def set_allocation_scale(self, scale: float) -> None:
        """Re-scale this node's effective compute rate to ``scale`` × nominal.

        A modelled rank normally stands for a fixed slice of the represented
        job's cores; when an elastic controller moves cores between stages,
        each rank of the grown stage is backed by proportionally more cores
        (``scale`` > 1, faster) and each rank of the shrunk stage by fewer
        (``scale`` < 1, slower).  Only work *started* after the call runs at
        the new rate — in-flight compute keeps the duration frozen when it
        was issued, exactly like a real reallocation at an epoch boundary.
        """
        if scale <= 0:
            raise ValueError("allocation scale must be positive")
        self._allocation_scale = float(scale)
        self._rate = (
            self.spec.core_speed
            * self._allocation_scale
            * self._fault_scale
            * self._tenant_scale
        )

    @property
    def fault_scale(self) -> float:
        """Fault-induced compute derating (1.0 when the node is healthy)."""
        return self._fault_scale

    def set_fault_scale(self, scale: float) -> None:
        """Derate (or restore) this node's compute rate for a fault window.

        Orthogonal to :meth:`set_allocation_scale`: the elastic layer owns
        the allocation scale, the fault injector owns this one, and the
        cached rate composes both.  A straggler window sets ``1/slowdown``;
        recovery restores ``1.0``.  As with allocation changes, only work
        started after the call runs at the new rate.
        """
        if scale <= 0:
            raise ValueError("fault scale must be positive")
        self._fault_scale = float(scale)
        self._rate = (
            self.spec.core_speed
            * self._allocation_scale
            * self._fault_scale
            * self._tenant_scale
        )

    def set_tenant_scale(self, scale: float) -> None:
        """Scale this node's compute rate to the tenant's facility share.

        The third orthogonal rate factor: the elastic layer owns the
        allocation scale, the fault injector owns the fault scale, and the
        tenant scheduler owns this one (a job's slice of a *shared*
        facility, ``scale`` ≤ 1 under contention, 1.0 when dedicated).  The
        cached rate composes all three, and as with the other factors only
        work started after the call runs at the new rate.
        """
        if scale <= 0:
            raise ValueError("tenant scale must be positive")
        self._tenant_scale = float(scale)
        self._rate = (
            self.spec.core_speed
            * self._allocation_scale
            * self._fault_scale
            * self._tenant_scale
        )

    def claim_compute_slots(self, count: int = 1) -> None:
        """Declare up to ``count`` additional concurrent :meth:`compute` callers.

        The uncontended fast path: when the *total* claimed concurrency fits
        in the node's core count, no compute call can ever queue, so the
        per-call core request/release bookkeeping has no observable effect —
        :meth:`compute` then skips it (crediting the elided events), and
        :meth:`compute_batch` may fast-forward whole segments.  Owners that
        know the node's complete workload (the pipeline runner claims one
        slot per potential concurrent compute of every hosted rank) must
        route every claim through here; a node with no claims stays on the
        exact slow path.
        """
        if count < 0:
            raise ValueError("claimed slot count must be non-negative")
        self._claimed_slots += count
        self._fast_path = 0 < self._claimed_slots <= self.spec.cores

    def release_compute_slots(self, count: int = 1) -> None:
        """Withdraw previously claimed concurrency (e.g. a retired assist rank)."""
        if count < 0:
            raise ValueError("released slot count must be non-negative")
        self._claimed_slots = max(0, self._claimed_slots - count)
        self._fast_path = 0 < self._claimed_slots <= self.spec.cores

    @property
    def uncontended(self) -> bool:
        """Whether the claimed concurrency guarantees compute never queues."""
        return self._fast_path

    @property
    def can_batch(self) -> bool:
        """Whether :meth:`compute_batch` may fast-forward on this node.

        Requires the uncontended guarantee and jitter-free compute (each
        jittered call draws from the node's random stream *in event order*,
        which a single batched event could not reproduce).
        """
        return self._fast_path and self.jitter_cv == 0.0

    def host_rank(self) -> int:
        """Account one more modelled rank living on this node.

        Pure bookkeeping — hosting does not reserve a core; the rank's work
        contends for cores through :meth:`compute` like everyone else's.
        """
        self.hosted_ranks += 1
        return self.hosted_ranks

    def release_rank(self) -> int:
        """Account one modelled rank leaving this node (a retire)."""
        if self.hosted_ranks <= 0:
            raise ValueError(f"node {self.node_id} hosts no ranks to release")
        self.hosted_ranks -= 1
        return self.hosted_ranks

    def compute(self, reference_seconds: float) -> Generator:
        """Occupy one core for ``reference_seconds`` of reference-core work."""
        if reference_seconds < 0:
            raise ValueError("reference_seconds must be non-negative")
        duration = reference_seconds / self._rate
        if self.jitter_cv > 0:
            duration = self.rng.jitter(
                f"node{self.node_id}.compute", duration, self.jitter_cv
            )
        cores = self.cores
        if self._fast_path and not cores._waiters and len(cores.users) < cores._capacity:
            # Guaranteed-uncontended: the grant would be immediate and both
            # queue trips are elided and credited — the clock advances by the
            # identical duration and events_processed stays bit-identical.
            # The call still *holds a slot* (a phantom entry in the user
            # list), so if an elastic assist spawn pushes the node's claims
            # past its cores mid-flight, later slow-path computes observe
            # the true occupancy and queue exactly as the slow path would.
            holder = _FAST_HOLDER
            cores.users.append(holder)
            try:
                if duration > 0:
                    yield self.env.sleep(duration)
                self.busy_core_seconds += duration
            finally:
                cores.users.remove(holder)
                # The synchronous half of Resource.release: grant any waiter
                # that queued behind this phantom slot, at exactly the
                # instant the slow path's Release would have granted it.
                while cores._waiters and len(cores.users) < cores._capacity:
                    cores._grant(cores._pop_waiter())
            self.env.credit_events(2)
            return duration
        req = cores.request()
        yield req
        try:
            if duration > 0:
                yield Timeout(self.env, duration)
            self.busy_core_seconds += duration
        finally:
            cores.release(req)
        return duration

    def compute_batch(
        self,
        seconds: Union[float, Sequence[float]],
        steps: int = 1,
        deadline: float = float("inf"),
    ) -> Generator:
        """Fast-forward ``steps`` repetitions of a compute segment in one event.

        ``seconds`` is the reference-core work of one segment — a float for a
        uniform segment or a sequence of per-call chunks (e.g. one entry per
        workload phase).  The batch is exactly equivalent to calling
        :meth:`compute` for every chunk of every repetition, but when the
        node :attr:`can_batch` it advances the clock with a single absolute
        timeout and credits the elided events; the end time, the busy-seconds
        accumulator and the returned per-repetition elapsed times are folded
        with the same float operations the per-call path performs, so results
        are bit-identical.

        ``deadline`` invalidates the fast-forward: if the folded end time
        would pass it (an elastic epoch boundary, after which
        :meth:`set_allocation_scale` may change the rate or an assist rank
        may spawn mid-segment), the batch *declines* — it returns ``None``
        without consuming any event or simulated time, and the caller runs
        its exact per-call sequence, which observes control decisions chunk
        by chunk.  The batch likewise declines when the node cannot
        fast-forward at all (:attr:`can_batch` false, or a transient core
        holder).

        Returns the list of per-repetition elapsed simulated seconds (one
        entry per ``steps``), matching what a caller timing each repetition
        with ``env.now`` differences would have measured — or ``None`` when
        the batch declined.
        """
        if steps <= 0:
            raise ValueError("steps must be positive")
        if self.env.sanitize:
            # The chunk order is folded into the absolute end time below;
            # a set-valued ``seconds`` would schedule in hash-salted order.
            sanitize.check_ordered(seconds, "compute_batch(seconds=...)")
        chunks = (
            (float(seconds),)
            if isinstance(seconds, (int, float))
            else tuple(float(chunk) for chunk in seconds)
        )
        if not chunks:
            raise ValueError("compute_batch needs at least one chunk")
        for chunk in chunks:
            if chunk < 0:
                raise ValueError("reference_seconds must be non-negative")
        env = self.env
        cores = self.cores
        if not (
            self._fast_path
            and self.jitter_cv == 0.0
            and not cores._waiters
            and len(cores.users) < cores._capacity
        ):
            return None
        rate = self._rate
        end = env.now
        busy = self.busy_core_seconds
        credit = 0
        any_timeout = False
        elapsed: List[float] = []
        for _ in range(steps):
            rep = 0.0
            for chunk in chunks:
                duration = chunk / rate
                prev = end
                end = prev + duration
                rep += end - prev
                busy += duration
                if duration > 0:
                    credit += 3
                    any_timeout = True
                else:
                    credit += 2
            elapsed.append(rep)
        if end > deadline:
            return None
        if any_timeout:
            # One absolute-time event stands in for the whole segment.  The
            # phantom slot keeps the node's occupancy visible for the whole
            # fast-forward, exactly like the per-call fast path.
            holder = _FAST_HOLDER
            cores.users.append(holder)
            try:
                yield env.sleep_until(end)
            finally:
                cores.users.remove(holder)
                while cores._waiters and len(cores.users) < cores._capacity:
                    cores._grant(cores._pop_waiter())
            credit -= 1
        # An all-zero segment consumes no event in the per-call path
        # (compute() returns without yielding), so none is consumed here
        # either — the process continues synchronously.
        self.busy_core_seconds = busy
        env.credit_events(credit)
        return elapsed

    def allocate_memory(self, nbytes: float) -> "ContainerPut":
        """Reserve ``nbytes`` of node memory (blocks while unavailable)."""
        return self.memory.put(nbytes)

    def free_memory(self, nbytes: float) -> "ContainerGet":
        """Release ``nbytes`` of node memory."""
        return self.memory.get(nbytes)

    @property
    def memory_in_use(self) -> float:
        return self.memory.level

    @property
    def memory_free(self) -> float:
        return self.memory.capacity - self.memory.level

    def __repr__(self) -> str:
        return (
            f"<ComputeNode {self.node_id} cores={self.spec.cores} "
            f"in_use={self.cores.count}>"
        )
