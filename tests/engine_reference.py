"""The reference for the time plane: a small discrete-event kernel.

The kernel is deliberately simpy-like: *processes* are Python generators
that yield the things they wait on — :class:`Timeout` for simulated time,
:class:`Event` for synchronisation, :class:`AllOf` for barriers, or a
:class:`Request` obtained from a :class:`Resource` for capacity.  The
engine drives everything from a single event heap, so simulated time is
deterministic and completely decoupled from wall-clock time.

Nothing under ``src/`` runs on it.  :func:`schedule_trace` below runs
a query's trace on it as contending processes, chunk event by chunk
event.  ``tests/test_service_timeline.py`` holds the query service's
timeline to it on the shared cluster, and ``tests/test_trace_replay.py``
(``engine_replay``) holds :func:`repro.sim.replay.replay_trace` to it
on a cluster that never contends.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Generator, List, Optional, Tuple

from collections import deque

from repro.errors import ServiceError, SimulationError
from repro.service.scheduler import CHUNKS, CLASS_OF_KIND
from repro.sim.replay import PhaseTiming
from repro.sim.trace import Phase, Trace


class Event:
    """A one-shot synchronisation point carrying an optional value."""

    def __init__(self, engine: "SimEngine", name: str = ""):
        self._engine = engine
        self.name = name
        self._callbacks: List[Callable[["Event"], None]] = []
        self.triggered = False
        self.value = None

    def succeed(self, value=None) -> "Event":
        """Trigger the event now; waiting processes resume immediately."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            self._engine._schedule(self._engine.now, callback, self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when triggered (immediately if already)."""
        if self.triggered:
            self._engine._schedule(self._engine.now, callback, self)
        else:
            self._callbacks.append(callback)


class Timeout:
    """Yielded by a process to advance simulated time by ``delay``."""

    def __init__(self, delay: float):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        self.delay = float(delay)


class AllOf:
    """Yielded by a process to wait until every event has triggered."""

    def __init__(self, events: List[Event]):
        self.events = list(events)


class Request:
    """A pending acquisition of :class:`Resource` capacity.

    Yield it from a process to block until granted; call
    :meth:`Resource.release` when done.
    """

    def __init__(self, resource: "Resource", amount: float):
        self.resource = resource
        self.amount = float(amount)
        self.event = Event(resource._engine, name="resource-grant")


class Resource:
    """Counted capacity with FIFO granting (disks, NICs, worker slots)."""

    def __init__(self, engine: "SimEngine", capacity: float, name: str = ""):
        if capacity <= 0:
            raise SimulationError("resource capacity must be positive")
        self._engine = engine
        self.capacity = float(capacity)
        self.name = name
        self.in_use = 0.0
        self._waiting: Deque[Request] = deque()

    def request(self, amount: float = 1.0) -> Request:
        """Ask for ``amount`` of capacity; yield the request to wait."""
        if amount > self.capacity:
            raise SimulationError(
                f"request {amount} exceeds capacity {self.capacity} "
                f"of resource {self.name!r}"
            )
        request = Request(self, amount)
        self._waiting.append(request)
        self._grant()
        return request

    def release(self, request: Request) -> None:
        """Return previously granted capacity."""
        self.in_use -= request.amount
        if self.in_use < -1e-9:
            raise SimulationError(f"resource {self.name!r} over-released")
        self._grant()

    def _grant(self) -> None:
        while self._waiting:
            head = self._waiting[0]
            if self.in_use + head.amount > self.capacity + 1e-12:
                break
            self._waiting.popleft()
            self.in_use += head.amount
            head.event.succeed(head)


class _Process:
    """Drives one generator, resuming it as its awaited things complete."""

    def __init__(self, engine: "SimEngine",
                 generator: Generator, name: str = ""):
        self.engine = engine
        self.generator = generator
        self.name = name
        self.done = Event(engine, name=f"{name}-done")

    def _start(self) -> None:
        self._step(None)

    def _step(self, value) -> None:
        try:
            yielded = self.generator.send(value)
        except StopIteration as stop:
            self.done.succeed(getattr(stop, "value", None))
            return
        self._wait_on(yielded)

    def _wait_on(self, yielded) -> None:
        if isinstance(yielded, Timeout):
            self.engine._schedule(
                self.engine.now + yielded.delay, self._step, None
            )
        elif isinstance(yielded, Event):
            yielded.add_callback(lambda event: self._step(event.value))
        elif isinstance(yielded, Request):
            yielded.event.add_callback(lambda event: self._step(yielded))
        elif isinstance(yielded, AllOf):
            self._wait_all(yielded.events)
        elif isinstance(yielded, _Process):
            yielded.done.add_callback(lambda event: self._step(event.value))
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported {yielded!r}"
            )

    def _wait_all(self, events: List[Event]) -> None:
        pending = [event for event in events if not event.triggered]
        if not pending:
            self.engine._schedule(self.engine.now, self._step, None)
            return
        remaining = {"count": len(pending)}

        def on_trigger(_event: Event) -> None:
            remaining["count"] -= 1
            if remaining["count"] == 0:
                self._step(None)

        for event in pending:
            event.add_callback(on_trigger)


class SimEngine:
    """The event loop: a heap of (time, sequence, callback) entries."""

    def __init__(self):
        self.now = 0.0
        self._heap: List[Tuple[float, int, Callable, object]] = []
        self._sequence = itertools.count()
        self._active_processes = 0

    def event(self, name: str = "") -> Event:
        """Create an untriggered event bound to this engine."""
        return Event(self, name=name)

    def timeout(self, delay: float) -> Timeout:
        """Convenience constructor for :class:`Timeout`."""
        return Timeout(delay)

    def resource(self, capacity: float, name: str = "") -> Resource:
        """Create a FIFO capacity resource bound to this engine."""
        return Resource(self, capacity, name=name)

    def call_at(self, when: float, callback: Callable[[], None]) -> None:
        """Run ``callback()`` at simulated time ``when`` (>= now).

        The scheduling primitive components outside the process model
        need — e.g. admission-queue timeout timers, which must fire even
        though no process is waiting on them.  The callback runs in
        event order like any process step.
        """
        if when < self.now - 1e-12:
            raise SimulationError(
                f"call_at({when}) is in the past (now={self.now})"
            )
        self._schedule(max(when, self.now), lambda _value: callback(), None)

    def after(self, delay: float, callback: Callable[[], None]) -> None:
        """``call_at(now + delay)``, as the admission controller's
        timeline offers it."""
        self.call_at(self.now + delay, callback)

    def process(self, generator: Generator, name: str = "") -> _Process:
        """Register a generator as a process; it starts at the current time."""
        process = _Process(self, generator, name=name)
        self._active_processes += 1

        def finish(_event: Event) -> None:
            self._active_processes -= 1

        process.done.add_callback(finish)
        self._schedule(self.now, lambda _value: process._start(), None)
        return process

    def _schedule(self, when: float, callback: Callable, value) -> None:
        heapq.heappush(self._heap, (when, next(self._sequence), callback, value))

    def run(self, until: Optional[float] = None) -> float:
        """Run until the heap drains (or simulated ``until``); return now.

        Raises :class:`SimulationError` if processes remain blocked with no
        scheduled events — a deadlock, typically a dependency cycle in the
        replayed trace.
        """
        while self._heap:
            when, _seq, callback, value = heapq.heappop(self._heap)
            if until is not None and when > until:
                heapq.heappush(self._heap, (when, _seq, callback, value))
                self.now = until
                return self.now
            if when < self.now - 1e-12:
                raise SimulationError("event scheduled in the past")
            self.now = when
            callback(value)
        if self._active_processes > 0 and until is None:
            raise SimulationError(
                f"deadlock: {self._active_processes} process(es) still "
                "waiting with no scheduled events"
            )
        return self.now


class SharedCluster:
    """The three contended resource classes, bound to one engine."""

    def __init__(self, engine: SimEngine):
        self.engine = engine
        self._resources: Dict[str, Resource] = {
            "edw": engine.resource(1, name="edw-workers"),
            "jen": engine.resource(1, name="jen-workers"),
            "net": engine.resource(1, name="interconnect"),
        }

    def resource_for(self, kind: str) -> Optional[Resource]:
        """The resource a phase of ``kind`` contends on (None = free)."""
        klass = CLASS_OF_KIND.get(kind)
        if klass is None:
            return None
        return self._resources[klass]


@dataclass
class TraceRun:
    """One trace being replayed on the shared cluster."""

    label: str
    trace: Trace
    #: Triggered when every phase finished; value is the makespan end.
    done: object
    #: Filled in as phases complete.
    timings: Dict[str, PhaseTiming]


def schedule_trace(engine: SimEngine, cluster: SharedCluster, trace: Trace,
                   chunks: int = CHUNKS, label: str = "") -> TraceRun:
    """Spawn ``trace``'s phases as contending processes; returns the run.

    Must be called while the engine is at the simulated time the query
    starts executing (i.e. from an admission callback or before
    ``engine.run()``).  The returned :class:`TraceRun`'s ``done`` event
    triggers at the query's completion time.
    """
    if chunks <= 0:
        raise ServiceError("chunks must be positive")
    run_label = label or trace.label
    started = {phase.name: engine.event(f"{run_label}:{phase.name}-start")
               for phase in trace}
    finished = {phase.name: engine.event(f"{run_label}:{phase.name}-finish")
                for phase in trace}
    chunk_events = {
        phase.name: [engine.event(f"{run_label}:{phase.name}-chunk{i}")
                     for i in range(chunks)]
        for phase in trace
    }
    run = TraceRun(label=run_label, trace=trace,
                   done=engine.event(f"{run_label}-done"), timings={})

    def run_phase(phase: Phase):
        barriers = [finished[name] for name in phase.after]
        barriers += [started[name] for name in phase.streams_from]
        if barriers:
            yield AllOf(barriers)
        resource = cluster.resource_for(phase.kind)
        request = None
        if resource is not None:
            request = resource.request(1.0)
            yield request
        start_time = engine.now
        started[phase.name].succeed()
        slice_seconds = phase.seconds / chunks
        for index in range(chunks):
            if phase.streams_from:
                yield AllOf(
                    [chunk_events[name][index]
                     for name in phase.streams_from]
                )
            if slice_seconds > 0:
                yield Timeout(slice_seconds)
            chunk_events[phase.name][index].succeed()
        finished[phase.name].succeed()
        if request is not None:
            resource.release(request)
        run.timings[phase.name] = PhaseTiming(
            name=phase.name, kind=phase.kind,
            start=start_time, end=engine.now,
        )

    def completion():
        yield AllOf([finished[name] for name in trace.names()])
        run.done.succeed(engine.now)

    for phase in trace:
        engine.process(run_phase(phase), name=f"{run_label}:{phase.name}")
    engine.process(completion(), name=f"{run_label}-completion")
    return run
