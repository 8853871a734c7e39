"""Multi-query scheduling on the shared simulated cluster.

The single-query time plane (:mod:`repro.sim.replay`) replays one trace
as if the whole cluster belonged to it.  The service plane replays many
traces on *one* :class:`~repro.sim.engine.SimEngine`, with each of the
cluster's three resource classes modelled as one FIFO gang slot:

``edw``
    The parallel database workers — table scans, index re-accesses, the
    DB-side join's internal shuffle and local joins.
``jen``
    The JEN workers on the DataNodes — HDFS scans, hash builds, probes,
    aggregation, spill I/O.
``net``
    The interconnect — JEN-to-JEN shuffles, DB exports/ingests over the
    20 Gbit switch, Bloom filter movements.

Each trace phase occupies its class's slot for its whole duration
(gang scheduling: a phase was priced assuming every worker of that class
participates, so two same-class phases cannot genuinely overlap and are
serialised FIFO).  Phases of *different* classes — one query's HDFS scan
against another's database export — overlap freely, which is exactly
where a concurrent stream beats serial execution.

Within one query the ``streams_from`` pipelining of
:mod:`repro.sim.replay` is preserved chunk for chunk, with one extra
rule: a phase only *starts* (and starts streaming) once it holds its
slot, so a producer always acquires before its consumers request —
which makes the cross-query wait graph provably acyclic (consumers
block only on upstream producers; a started phase never re-requests).

:class:`FairSharePolicy` is the admission-order policy the controller
in :mod:`repro.service.admission` consults: highest priority first,
then the tenant with the fewest queries in flight, then FIFO.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.errors import ServiceError
from repro.sim.engine import AllOf, Resource, SimEngine, Timeout
from repro.sim.replay import PhaseTiming
from repro.sim.trace import Phase, Trace

#: Trace phase kind -> shared resource class (None = coordinator-side
#: latency, never contended).
CLASS_OF_KIND: Dict[str, Optional[str]] = {
    "db_scan": "edw",
    "db_cpu": "edw",
    "db_shuffle": "edw",
    "hdfs_scan": "jen",
    "cpu": "jen",
    "disk": "jen",
    "read": "jen",
    "shuffle": "net",
    "transfer": "net",
    "network": "net",
    "bloom": "net",
    "latency": None,
}

#: Chunks per streamed phase; coarser than the single-query replay's 64
#: because the service replays many traces on one heap.
DEFAULT_CHUNKS = 32


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

    @property
    def finished(self) -> bool:
        """Whether the whole trace has completed."""
        return self.done.triggered

    @property
    def end_time(self) -> float:
        """Simulated completion time (only valid once finished)."""
        if not self.finished:
            raise ServiceError(f"trace {self.label!r} still running")
        return self.done.value

    def elapsed(self, start: float) -> float:
        """Makespan of this trace measured from ``start``."""
        return self.end_time - start


def schedule_trace(engine: SimEngine, cluster: SharedCluster, trace: Trace,
                   chunks: int = DEFAULT_CHUNKS, label: str = "") -> TraceRun:
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


class FairSharePolicy:
    """Pick the next queued query to admit when a slot frees.

    Ordering: highest priority first (lower ``priority`` number wins),
    then the tenant currently holding the fewest in-flight queries
    (fair share), then submission order.  Any object exposing
    ``priority`` / ``tenant`` / ``seq`` can be offered to
    :meth:`select`.
    """

    def select(self, pending: Sequence, in_flight_by_tenant: Dict[str, int]
               ) -> Optional[int]:
        """Index into ``pending`` of the request to admit next."""
        if not pending:
            return None
        best_index = None
        best_key = None
        for index, request in enumerate(pending):
            key = (
                request.priority,
                in_flight_by_tenant.get(request.tenant, 0),
                request.seq,
            )
            if best_key is None or key < best_key:
                best_key = key
                best_index = index
        return best_index
