"""Per-layer wall-time attribution for the benchmark's traced runs.

:func:`install` wraps the public entry points of every layer of ``repro``
(engine run loop and process resumes, cluster network/node/PFS generators,
transports, simulated MPI, the workflow runner, the controllers, the sweep
harness and the campaign service) from the outside: the program's source is
untouched and its own ``PipelineSpec.trace`` switch stays off, so a traced
run takes the same coalesced execution path as an untraced one.

Each thread keeps a :class:`Ledger`: a span stack, the *self time* of every
layer (time with that layer innermost on the stack), inclusive durations of
named phases and plain counters.  Generator functions are timed on every
resume through a delegating proxy generator; a process is charged to the
module that owns its generator, a ``PeriodicController`` callback to the
controller's ``name``.

Spans in the ``wait.*`` layers are *passive*: the main thread blocked on helpers
(pool workers, campaign threads).  :func:`layer_report` hands that time to
the layers the helpers spent it in, in proportion to their self time, so
the reported self times plus ``other`` sum exactly to the traced wall.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

_perf = time.perf_counter

#: Spans shorter than this are kept in the per-layer totals but left out of
#: the Chrome trace file, which would otherwise hold one span per resume.
FINE_SPAN_MIN_S = 2e-4

#: Upper bound on spans kept per thread for the Chrome trace file.
SPAN_CAP = 50_000

#: Layers reported with a ``<layer>.self_s`` metric; any other layer a span
#: lands in (for example the ``none`` transport) is folded into ``other``.
SELF_LAYERS: Tuple[str, ...] = (
    "simcore",
    "cluster.network",
    "cluster.node",
    "cluster.pfs",
    "transports.zipper",
    "transports.flexpath",
    "transports.dimes",
    "transports.dataspaces",
    "transports.decaf",
    "transports.mpiio",
    "transports.staging",
    "simmpi",
    "workflow.runner",
    "elastic",
    "faults",
    "tenants",
    "sweep",
    "campaign",
)


class Ledger:
    """One thread's span stack, per-layer self time, durations and counters."""

    __slots__ = ("pid", "tid", "thread", "self_s", "counts", "stack", "current", "last", "spans", "envs")

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.tid = threading.get_ident()
        self.thread = threading.current_thread().name
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.stack: List[Tuple[Optional[str], float, Optional[str]]] = []
        self.current: Optional[str] = None
        self.last = 0.0
        #: Recorded spans: ``(name, layer, start, end)`` in perf_counter seconds.
        self.spans: List[Tuple[str, str, float, float]] = []
        #: Simulation environments created by this thread's current case.
        self.envs: List[object] = []

    def enter(self, layer: str, name: Optional[str] = None) -> None:
        """Open a span charged to ``layer``; ``name`` marks it for the trace file."""
        now = _perf()
        current = self.current
        if current is not None:
            self.self_s[current] += now - self.last
        self.stack.append((current, now, name))
        self.current = layer
        self.last = now

    def exit(self) -> float:
        """Close the innermost span and return its inclusive duration."""
        now = _perf()
        layer = self.current
        self.self_s[layer] += now - self.last
        previous, start, name = self.stack.pop()
        if (name is not None or now - start >= FINE_SPAN_MIN_S) and len(self.spans) < SPAN_CAP:
            self.spans.append((name or layer, layer, start, now))
        self.current = previous
        self.last = now
        return now - start

    def reset(self) -> None:
        """Zero self times and counters; open spans and recorded spans stay."""
        self.self_s.clear()
        self.counts.clear()
        if self.current is not None:
            self.last = _perf()


_local = threading.local()
_ledgers: List[Ledger] = []
_ledgers_lock = threading.Lock()


def ledger() -> Ledger:
    """The calling thread's ledger, created on first use."""
    try:
        return _local.ledger
    except AttributeError:
        led = _local.ledger = Ledger()
        with _ledgers_lock:
            _ledgers.append(led)
        return led


def _forget_parent_ledgers() -> None:
    """A forked pool worker starts with empty ledgers of its own."""
    global _local, _ledgers_lock
    _local = threading.local()
    _ledgers_lock = threading.Lock()
    del _ledgers[:]


def ledgers() -> List[Ledger]:
    """Every ledger of this process."""
    with _ledgers_lock:
        return list(_ledgers)


class span:
    """Context manager timing a block as one span; a no-op while not installed.

    ``metric`` names a counter that accumulates the span's inclusive
    duration (for example ``campaign.stop_s``).
    """

    __slots__ = ("layer", "name", "metric", "_led")

    def __init__(self, layer: str, name: str, metric: Optional[str] = None):
        self.layer = layer
        self.name = name
        self.metric = metric
        self._led: Optional[Ledger] = None

    def __enter__(self) -> "span":
        if _installed:
            self._led = ledger()
            self._led.enter(self.layer, self.name)
        return self

    def __exit__(self, *exc: object) -> None:
        led = self._led
        if led is not None:
            duration = led.exit()
            if self.metric is not None:
                led.counts[self.metric] += duration


def count(metric: str, amount: float = 1) -> None:
    """Add ``amount`` to the calling thread's counter ``metric`` (when installed)."""
    if _installed:
        ledger().counts[metric] += amount


# -- delegating proxies ------------------------------------------------------
def _timed_generator(gen, layer: str):
    """Drive ``gen`` like ``yield from`` would, charging each resume to ``layer``.

    A simulation runs on one thread, so the creating thread's ledger is the
    resuming thread's.
    """
    send = gen.send
    led = ledger()
    enter = led.enter
    leave = led.exit
    value = None
    thrown: Optional[BaseException] = None
    while True:
        enter(layer)
        try:
            out = send(value) if thrown is None else gen.throw(thrown)
        except StopIteration as stop:
            leave()
            return stop.value
        except BaseException:
            leave()
            raise
        leave()
        thrown = None
        try:
            value = yield out
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # noqa: BLE001 - forwarded into gen
            thrown = exc
            value = None


_PROXY_CODE = _timed_generator.__code__


def _busy_wait(seconds: float) -> None:
    """Spin for ``seconds``: a planted slowdown that sleep granularity cannot blur."""
    end = _perf() + seconds
    while _perf() < end:
        pass


def _wrap_generator_function(owner, attr: str, layer_of, counter=None, delay: float = 0.0):
    """Replace ``owner.attr`` by a function returning a timed proxy of its generator."""
    original = owner.__dict__[attr]

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if counter is not None:
            counter(ledger().counts, args, kwargs)
        gen = original(*args, **kwargs)
        if delay:
            gen = _delayed(gen, delay)
        return _timed_generator(gen, layer_of(args)) if layer_of is not None else gen

    setattr(owner, attr, wrapper)


def _delayed(gen, seconds: float):
    """``gen`` with a planted slowdown on its first resume (sensitivity self-test)."""
    _busy_wait(seconds)
    return (yield from gen)


def _wrap_function(owner, attr: str, layer: Optional[str], name=None, metric=None, passive=False, delay=0.0):
    """Replace ``owner.attr`` by a spanned (and optionally delayed) call of itself.

    A planted delay runs after the original call returns, so it cannot
    overlap waiting the call does (``CoordinatorServer.stop`` waits for the
    server's poll loop).  ``layer=None`` plants only the delay, without a span.
    """
    original = getattr(owner, attr)
    span_layer = ("wait." + layer) if passive else layer

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if layer is None:
            try:
                return original(*args, **kwargs)
            finally:
                _busy_wait(delay)
        led = ledger()
        led.enter(span_layer, name)
        try:
            return original(*args, **kwargs)
        finally:
            if delay:
                _busy_wait(delay)
            duration = led.exit()
            if metric is not None:
                led.counts[metric] += duration

    setattr(owner, attr, wrapper)


# -- layer attribution ---------------------------------------------------------
_MODULE_LAYERS = {
    "simcore": "simcore",
    "simmpi": "simmpi",
    "workflow": "workflow.runner",
    "elastic": "elastic",
    "perfmodel": "elastic",
    "faults": "faults",
    "tenants": "tenants",
    "sweep": "sweep",
    "campaign": "campaign",
}


def module_layer(module: str) -> str:
    """The layer of a ``repro`` module name such as ``repro.cluster.network``."""
    parts = module.split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return "other"
    package = parts[1]
    if package in ("cluster", "transports") and len(parts) > 2:
        return f"{package}.{parts[2]}"
    return _MODULE_LAYERS.get(package, "other")


_code_layers: Dict[object, str] = {}


def _code_layer(code) -> str:
    layer = _code_layers.get(code)
    if layer is None:
        path = code.co_filename.replace(os.sep, "/")
        marker = path.rfind("/repro/")
        module = path[marker + 1:-3].replace("/", ".") if marker >= 0 else ""
        layer = _code_layers[code] = module_layer(module)
    return layer


# -- installation ----------------------------------------------------------------
_installed = False
_original_execute_case: Optional[Callable] = None
_main_pid = 0

#: Entry points the sensitivity self-test may plant a delay in.
DELAY_TARGETS = ("Network.transfer", "CoordinatorServer.stop")


def traced_execute_case(payload):
    """Span one sweep case; in a pool worker, ship the case's ledger delta home.

    Module-level so the pool can pickle it by reference in place of
    ``repro.sweep.runner._execute_case``.  Pool workers are forked from the
    traced main process, so they inherit its patches.
    """
    from repro.tenants.spec import TenantSpec

    led = ledger()
    led.enter("tenants" if isinstance(payload[3], TenantSpec) else "workflow.runner", "case " + payload[1])
    self_before = dict(led.self_s)
    counts_before = dict(led.counts)
    spans_before = len(led.spans)
    try:
        index, record = _original_execute_case(payload)
    finally:
        led.exit()
        # Engine-level events of every environment the case built, including
        # controller wake-ups and tenant baselines the model count leaves out.
        led.counts["simcore.events"] += sum(env.events_processed for env in led.envs)
        del led.envs[:]
    if os.getpid() != _main_pid:
        record.perfbench = {
            "self_s": _delta(led.self_s, self_before),
            "counts": _delta(led.counts, counts_before),
            "spans": [(led.pid, led.tid) + s for s in led.spans[spans_before:]],
        }
    return index, record


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {k: v - before.get(k, 0.0) for k, v in after.items() if v != before.get(k, 0.0)}


def install(trace: bool = True, delays: Optional[Dict[str, float]] = None) -> None:
    """Patch the layer entry points of ``repro`` (once per process).

    ``delays`` plants a busy-wait of the given seconds per call into the
    wrappers named in :data:`DELAY_TARGETS` (the sensitivity self-test).
    ``trace=False`` installs only those planted delays, with no spans, for
    the untraced half of that test.
    """
    global _installed, _original_execute_case, _main_pid
    if _installed or _main_pid:
        raise RuntimeError("perfbench.tracing is already installed in this process")
    delays = dict(delays or {})
    unknown = sorted(set(delays) - set(DELAY_TARGETS))
    if unknown:
        raise ValueError(f"unknown delay target(s) {unknown}; known: {sorted(DELAY_TARGETS)}")
    _main_pid = os.getpid()
    if not trace:
        from repro.campaign.coordinator import CoordinatorServer
        from repro.cluster.network import Network

        if "Network.transfer" in delays:
            _wrap_generator_function(
                Network, "transfer", None, delay=delays["Network.transfer"]
            )
        if "CoordinatorServer.stop" in delays:
            _wrap_function(
                CoordinatorServer, "stop", None, delay=delays["CoordinatorServer.stop"]
            )
        return
    _installed = True
    os.register_at_fork(after_in_child=_forget_parent_ledgers)

    from multiprocessing import pool as mp_pool

    import repro.campaign.coordinator as coordinator
    import repro.campaign.protocol as protocol
    import repro.campaign.worker as worker
    import repro.sweep.runner as sweep_runner
    import repro.transports  # noqa: F401 - registers every transport class
    from repro.cluster.network import Network
    from repro.cluster.node import ComputeNode
    from repro.cluster.pfs import ParallelFileSystem
    from repro.faults.injector import FaultInjector
    from repro.simcore.control import PeriodicController
    from repro.simcore.engine import Environment
    from repro.simcore.events import Process
    from repro.simmpi.comm import Communicator
    from repro.sweep.store import BatchWriter, ResultStore
    from repro.transports.base import Transport
    from repro.transports.staging import ArrivalBoard, StagingLockService, StepWindow
    from repro.workflow.runner import PipelineRunner

    # Engine: the run loop, process resumes, and the elided-pop credits.
    original_env_init = Environment.__init__

    def _env_init(self, *args, **kwargs):
        original_env_init(self, *args, **kwargs)
        ledger().envs.append(self)

    Environment.__init__ = _env_init
    for attr in ("run", "run_bounded"):
        _wrap_function(Environment, attr, "simcore")

    original_resume = Process._resume

    def _resume(self, event):
        code = self._generator.gi_code
        if code is _PROXY_CODE:
            return original_resume(self, event)
        led = ledger()
        led.enter(_code_layer(code))
        try:
            return original_resume(self, event)
        finally:
            led.exit()

    Process._resume = _resume

    original_process = Environment.process

    def _process(self, generator):
        count("simcore.processes")
        return original_process(self, generator)

    Environment.process = _process

    original_credit = Environment.credit_events

    def _credit_events(self, amount):
        count("simcore.credited", amount)
        return original_credit(self, amount)

    Environment.credit_events = _credit_events

    original_inplace = Environment.trigger_inplace

    def _trigger_inplace(self, event, value=None):
        original_inplace(self, event, value)
        if event.callbacks is None:
            count("simcore.credited")

    Environment.trigger_inplace = _trigger_inplace

    original_complete = Environment.complete

    def _complete(self, event):
        original_complete(self, event)
        count("simcore.credited")

    Environment.complete = _complete

    original_controller_init = PeriodicController.__init__

    def _controller_init(self, env, interval, callback, name="controller"):
        # The controller's name is its layer: the elastic controllers are
        # named "elastic", so their wake-ups count as elastic.epochs.
        @functools.wraps(callback)
        def timed_callback(now):
            led = ledger()
            led.counts[f"{name}.epochs"] += 1
            led.enter(name)
            try:
                return callback(now)
            finally:
                led.exit()

        original_controller_init(self, env, interval, timed_callback, name)

    PeriodicController.__init__ = _controller_init

    # Cluster.
    def _transfer_counter(counts, args, kwargs):
        counts["cluster.network.transfers"] += 1
        counts["cluster.network.bytes"] += kwargs["nbytes"] if "nbytes" in kwargs else args[3]

    _wrap_generator_function(
        Network,
        "transfer",
        lambda args: "cluster.network",
        _transfer_counter,
        delay=delays.get("Network.transfer", 0.0),
    )
    for attr in ("read", "write"):
        _wrap_generator_function(
            ParallelFileSystem, attr, lambda args: "cluster.pfs", _counter("cluster.pfs.ios")
        )
    _wrap_generator_function(
        ComputeNode, "compute", lambda args: "cluster.node", _counter("cluster.node.computes")
    )
    _wrap_generator_function(
        ComputeNode, "compute_batch", lambda args: "cluster.node", _counter("cluster.node.batches")
    )

    # Transports: charged to the module of the instance's class.
    def _transport_layer(args) -> str:
        return module_layer(type(args[0]).__module__)

    def _put_counter(counts, args, kwargs):
        counts[_transport_layer(args) + ".puts"] += 1

    for cls in _subclasses(Transport):
        for attr in ("producer_put", "producer_finalize", "consumer_run"):
            if attr in cls.__dict__:
                counter = _put_counter if attr == "producer_put" else None
                _wrap_generator_function(cls, attr, _transport_layer, counter)
        if "consumer_run" in cls.__dict__:
            _wrap_analyze_callback(cls)
    staging = lambda args: "transports.staging"  # noqa: E731
    _wrap_generator_function(
        StagingLockService, "request", staging, _counter("transports.staging.puts")
    )
    _wrap_generator_function(StepWindow, "wait_for_write", staging)
    _wrap_generator_function(ArrivalBoard, "wait_until_ready", staging)

    # Simulated MPI.
    for attr in ("send", "recv", "sendrecv", "waitall"):
        _wrap_generator_function(Communicator, attr, lambda args: "simmpi")
    for attr in ("barrier", "allreduce", "gather"):
        _wrap_generator_function(
            Communicator, attr, lambda args: "simmpi", _counter("simmpi.collectives")
        )

    # Workflow runner and controllers.
    _wrap_function(PipelineRunner, "__init__", "workflow.runner", "workflow.build", "workflow.build_s")
    _wrap_function(PipelineRunner, "finish", "workflow.runner", "workflow.finish", "workflow.finish_s")
    original_advance = PipelineRunner.advance

    def _advance(self, until=float("inf")):
        if ledger().current == "tenants":
            count("tenants.segments")
        return original_advance(self, until)

    PipelineRunner.advance = _advance
    original_inject = FaultInjector._inject

    def _inject(self, spec):
        count("faults.injected")
        return original_inject(self, spec)

    FaultInjector._inject = _inject

    # Sweep harness.
    _original_execute_case = sweep_runner._execute_case
    sweep_runner._execute_case = traced_execute_case
    _wrap_function(BatchWriter, "append", "sweep", None, "sweep.store.append_s")
    _wrap_function(ResultStore, "append", "sweep", None, "sweep.store.append_s")
    for cls in (BatchWriter, ResultStore):
        _chain_counter(cls, "append", "sweep.store.appends")
    _wrap_function(mp_pool.IMapIterator, "next", "sweep", None, "sweep.wait_s", passive=True)
    mp_pool.IMapIterator.__next__ = mp_pool.IMapIterator.next

    # Campaign service.
    for endpoint in ("spec", "lease", "heartbeat", "results"):
        _chain_counter(coordinator.Campaign, f"handle_{endpoint}", f"campaign.http.{endpoint}.calls")
    original_results = coordinator.Campaign.handle_results

    def _handle_results(self, worker_name, lease_id, records, done):
        count("campaign.records_posted", len(records))
        return original_results(self, worker_name, lease_id, records, done)

    coordinator.Campaign.handle_results = _handle_results
    _wrap_function(coordinator._CampaignHandler, "handle", "campaign", None, "campaign.handler_s")
    _wrap_function(
        coordinator.CoordinatorServer,
        "stop",
        "campaign",
        "campaign.stop",
        "campaign.stop_s",
        delay=delays.get("CoordinatorServer.stop", 0.0),
    )
    _wrap_function(protocol, "request_json", "campaign", None, "campaign.http.client_s", passive=True)
    _wrap_function(worker, "campaign_cases", "campaign", "campaign.spec_expand", "campaign.spec_expand_s")
    _wrap_function(worker.CampaignWorker, "_run_case", "campaign", None, "campaign.exec_s")
    _wrap_function(worker.CampaignWorker, "run", "campaign", "campaign.worker")
    original_worker_init = worker.CampaignWorker.__init__

    def _worker_init(self, *args, **kwargs):
        original_worker_init(self, *args, **kwargs)
        self._stop = _TimedStopEvent()

    worker.CampaignWorker.__init__ = _worker_init


def _wrap_analyze_callback(cls) -> None:
    """Charge the runner's ``analyze`` generator, run inside a transport's
    ``consumer_run``, to the workflow runner rather than the transport."""
    consumer_run = cls.consumer_run

    @functools.wraps(consumer_run)
    def wrapper(self, ctx, arank, analyze):
        def timed_analyze(*args, **kwargs):
            return _timed_generator(analyze(*args, **kwargs), "workflow.runner")

        return consumer_run(self, ctx, arank, timed_analyze)

    cls.consumer_run = wrapper


def _counter(metric: str):
    def counter(counts, args, kwargs):
        counts[metric] += 1

    return counter


def _chain_counter(owner, attr: str, metric: str) -> None:
    """Count calls of ``owner.attr`` under ``metric`` without opening a span."""
    original = owner.__dict__[attr]

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        count(metric)
        return original(*args, **kwargs)

    setattr(owner, attr, wrapper)


def _subclasses(cls) -> List[type]:
    out: List[type] = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


class _TimedStopEvent(threading.Event):
    """A campaign worker's stop flag whose waits (lease back-off) are spanned."""

    def wait(self, timeout: Optional[float] = None) -> bool:
        with span("wait.campaign", "campaign.lease_wait", "campaign.lease_wait_s"):
            return super().wait(timeout)


# -- reporting ------------------------------------------------------------------
def reset() -> None:
    """Zero every ledger's totals at the start of the measured phase."""
    for led in ledgers():
        led.reset()


def _merge(into: Dict[str, float], more: Dict[str, float]) -> None:
    for key, value in more.items():
        into[key] = into.get(key, 0.0) + value


def layer_report(wall_s: float, helper_deltas: Iterable[Dict[str, Dict[str, float]]] = ()) -> Dict[str, float]:
    """Self time per layer plus ``other``, summing to ``wall_s``, and all counters.

    The calling thread is the main one.  Its passive ``wait.*`` time is handed
    to the layers the helpers (this process's other threads, plus the pool
    workers' ``helper_deltas``) spent it in, in proportion to their active
    self time and never more than they spent; the rest of the wait stays
    with the layer that waited.
    """
    main = ledger()
    helpers: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    for led in ledgers():
        _merge(counts, led.counts)
        if led is not main:
            _merge(helpers, led.self_s)
    for delta in helper_deltas:
        _merge(counts, delta["counts"])
        _merge(helpers, delta["self_s"])
    active = {k: v for k, v in helpers.items() if not k.startswith("wait.")}
    layers: Dict[str, float] = {}
    waits: Dict[str, float] = {}
    for key, value in main.self_s.items():
        if key.startswith("wait."):
            waits[key[len("wait."):]] = value
        else:
            layers[key] = layers.get(key, 0.0) + value
    waited = sum(waits.values())
    helped = sum(active.values())
    share = min(1.0, waited / helped) if helped > 0 else 0.0
    for key, value in active.items():
        layers[key] = layers.get(key, 0.0) + value * share
    unhelped = waited - helped * share
    for owner, value in waits.items():
        layers[owner] = layers.get(owner, 0.0) + (unhelped * value / waited if waited else 0.0)
    report: Dict[str, float] = {}
    folded = 0.0
    for key, value in layers.items():
        if key in SELF_LAYERS:
            report[f"{key}.self_s"] = value
        else:
            folded += value
    for key in SELF_LAYERS:
        report.setdefault(f"{key}.self_s", 0.0)
    report["other.self_s"] = wall_s - sum(report.values())
    report["other.folded_s"] = folded
    report.update(counts)
    events = report.get("simcore.events", 0.0)
    credited = report.pop("simcore.credited", 0.0)
    report["simcore.popped"] = events - credited
    report["simcore.credited_frac"] = credited / events if events else 0.0
    popped = report["simcore.popped"]
    report["simcore.ns_per_pop"] = report["simcore.self_s"] * 1e9 / popped if popped else 0.0
    return report


def chrome_trace(extra_spans: Iterable[Tuple] = (), origin: float = 0.0, metadata: Optional[Dict[str, object]] = None) -> Dict[str, object]:
    """Recorded spans in Chrome Trace Event Format (Perfetto, chrome://tracing)."""
    events: List[Dict[str, object]] = []
    threads = {}
    rows = []
    for led in ledgers():
        threads[(led.pid, led.tid)] = led.thread
        rows.extend((led.pid, led.tid) + s for s in led.spans)
    for row in extra_spans:
        threads.setdefault((row[0], row[1]), "pool-worker")
        rows.append(tuple(row))
    for (pid, tid), name in sorted(threads.items()):
        events.append({"name": "thread_name", "ph": "M", "pid": pid, "tid": tid, "args": {"name": name}})
    for pid, tid, name, layer, start, end in sorted(rows, key=lambda r: r[4]):
        events.append(
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": dict(metadata or {})}
