"""Multi-query scheduling on the shared simulated cluster.

The single-query time plane (:mod:`repro.sim.replay`) replays one trace
as if the whole cluster belonged to it.  The service plane runs many
traces on one :class:`Timeline`, with each of the cluster's three
resource classes one FIFO gang slot:

``edw``
    The parallel database workers — table scans, index re-accesses, the
    DB-side join's internal shuffle and local joins.
``jen``
    The JEN workers on the DataNodes — HDFS scans, hash builds, probes,
    aggregation, spill I/O.
``net``
    The interconnect — JEN-to-JEN shuffles, DB exports/ingests over the
    20 Gbit switch, Bloom filter movements.

Each trace phase holds its class's slot for its whole duration (gang
scheduling: a phase was priced assuming every worker of that class
participates, so two same-class phases cannot genuinely overlap and are
serialised FIFO).  Phases of *different* classes — one query's HDFS scan
against another's database export — overlap freely, which is exactly
where a concurrent stream beats serial execution.

Within one query the ``streams_from`` pipelining of
:mod:`repro.sim.replay` is kept chunk for chunk, with one extra rule: a
phase only *starts* (and starts streaming) once it holds its slot.  So
a phase's chunks are known when it is granted: the same
:func:`~repro.sim.replay.chunk_ends` of its start and its producers'.

:class:`FairSharePolicy` is the admission-order policy the controller
in :mod:`repro.service.admission` consults: highest priority first,
then the tenant with the fewest queries in flight, then FIFO.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.replay import PhaseTiming, chunk_ends
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
#: because the service replays many traces on one timeline.
CHUNKS = 32

#: A point on the timeline: (simulated time, causal depth).
Step = Tuple[float, int]


class Timeline:
    """One drain's simulated clock: a heap of plain callbacks, run in
    (time, causal depth, push order).  Causal depth counts the steps
    since time last advanced (``docs/architecture.md`` states the rule).
    """

    def __init__(self):
        self.now = 0.0
        self.depth = 0
        self._heap: List[Tuple[float, int, int, Callable[[], None]]] = []
        self._pushes = itertools.count()

    def at(self, step: Step, callback: Callable[[], None]) -> None:
        """Run ``callback()`` at ``step``."""
        heapq.heappush(self._heap, (*step, next(self._pushes), callback))

    def after(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback()`` ``delay`` simulated seconds from now: one
        step later if that is still now, at depth 0 otherwise."""
        when = self.now + delay
        self.at((when, self.depth + 1 if when == self.now else 0), callback)

    def run(self) -> None:
        """Run callbacks until none is left."""
        while self._heap:
            self.now, self.depth, _, callback = heapq.heappop(self._heap)
            callback()


class SharedCluster:
    """The three contended resource classes, one FIFO gang slot each."""

    def __init__(self):
        #: Class -> the step its slot frees: the end of its last grant.
        self._frees: Dict[str, Step] = dict.fromkeys(("edw", "jen", "net"),
                                                     (0.0, 0))

    def schedule(self, timeline: Timeline, trace: Trace,
                 on_done: Callable[[Dict[str, PhaseTiming]], None]) -> None:
        """Run ``trace``'s phases from the timeline's current step.

        A phase requests its slot one step after the last of its
        barriers (its ``after`` phases' ends, its producers' starts).
        It starts one step after the later of that request and the end
        that frees its slot; a latency phase starts at its request.  A
        phase that takes time ends at depth 0; a zero-second one at its
        start, or one step after its producers' latest end.  ``on_done``
        gets the phase timings one step after the last phase ends.
        """
        spawn = (timeline.now, timeline.depth + 1)
        starts: Dict[str, Step] = {}
        ends: Dict[str, Step] = {}
        marks: Dict[str, List[float]] = {}
        timings: Dict[str, PhaseTiming] = {}

        def grant(phase: Phase) -> None:
            start = (timeline.now, timeline.depth)
            klass = CLASS_OF_KIND.get(phase.kind)
            if klass is not None:
                when, depth = max(start, self._frees[klass])
                start = (when, depth + 1)
            marks[phase.name] = chunk_ends(
                start[0], phase.seconds,
                [marks[name] for name in phase.streams_from], CHUNKS)
            end = max([start] + [(ends[name][0], ends[name][1] + 1)
                                 for name in phase.streams_from])
            if phase.seconds > 0:
                end = (marks[phase.name][-1], 0)
            starts[phase.name], ends[phase.name] = start, end
            if klass is not None:
                self._frees[klass] = end
            timings[phase.name] = PhaseTiming(
                name=phase.name, kind=phase.kind, start=start[0],
                end=end[0])
            for consumer in trace:
                barriers = consumer.after + consumer.streams_from
                if phase.name in barriers \
                        and all(name in ends for name in barriers):
                    when, depth = max(
                        [spawn] + [ends[name] for name in consumer.after]
                        + [starts[name] for name in consumer.streams_from])
                    timeline.at((when, depth + 1),
                                functools.partial(grant, consumer))
            if len(timings) == len(trace):
                finish()

        def finish() -> None:
            when, depth = max([spawn, *ends.values()])
            timeline.at((when, depth + 1), lambda: on_done(timings))

        for phase in trace:
            if not phase.after and not phase.streams_from:
                timeline.at(spawn, functools.partial(grant, phase))
        if not len(trace):
            finish()


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
        return min(range(len(pending)), key=lambda index: (
            pending[index].priority,
            in_flight_by_tenant.get(pending[index].tenant, 0),
            pending[index].seq,
        ))
