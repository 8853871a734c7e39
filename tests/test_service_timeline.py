"""The service's timeline against the event-engine reference.

:class:`~repro.service.QueryService` schedules a drain as plain
callbacks on one :class:`~repro.service.Timeline`; each phase's chunks
come from :func:`repro.sim.replay.chunk_ends`.  The reference is the
same stream replayed on the kernel in ``tests/engine_reference.py``:
one process per query and per phase, chunk event by chunk event.  On
real streams — timeouts, sheds, degraded queries and fault retries
included — every phase start and end and every queue wait must be the
reference's bit for bit.  Random streams get invariant checks instead:
there, ties at one instant can also depend on the order in which the
engine processed chunk events.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import (
    AdmissionConfig,
    AdmissionController,
    QueryService,
    ServiceConfig,
    SharedCluster,
    StreamSpec,
    Timeline,
    generate_query_stream,
)
from repro.service.scheduler import CLASS_OF_KIND
from repro.service.server import CACHE_HIT_SECONDS, FAULT_RETRIES
from repro.sim.trace import Trace
from tests import engine_reference as reference
from tests.conftest import build_test_warehouse, faulted_service

_OVERLOAD = AdmissionConfig(slots=1, max_queue=3, queue_timeout=150.0,
                            shed_fraction=0.5)
_BURSTS = StreamSpec(num_queries=8, templates=3, arrival_gap=2.0, seed=5,
                     best_effort_fraction=0.5)
#: (admission, fault spec, stream spec) of each contended stream.
STREAMS = {
    # The ext_service experiment's stream at four slots: same-instant
    # requests here need the causal-depth order.
    "ext_service": (AdmissionConfig(slots=4, max_queue=64,
                                    queue_timeout=1e6, shed_fraction=None),
                    None, StreamSpec(num_queries=12, templates=3, seed=7,
                                     best_effort_fraction=0.0)),
    "overload": (_OVERLOAD, None, _BURSTS),
    "degraded": (dataclasses.replace(_OVERLOAD, queue_timeout=1e4,
                                     degrade_to_approx=True),
                 None, _BURSTS),
    "repeats": (AdmissionConfig(slots=2), None, StreamSpec(
        num_queries=10, templates=2, arrival_gap=40.0, tenants=3, seed=9)),
    "aborts": (AdmissionConfig(slots=1, queue_timeout=60.0), "abort:scan:3",
               StreamSpec(num_queries=4, templates=2, arrival_gap=1.0,
                          seed=2)),
    "abort_burst": (AdmissionConfig(slots=1, queue_timeout=60.0),
                    "abort:scan:1", StreamSpec(num_queries=3, templates=2,
                                               arrival_gap=0.0, seed=2)),
}


@pytest.fixture(scope="module")
def drains(paper_workload):
    """Each stream drained once: its submissions, outcomes and the
    phase timings the service's timeline gave every executed trace."""
    timings, runs = {}, {}
    schedule = SharedCluster.schedule

    def recording(self, timeline, trace, on_done):
        def done(phases):
            timings[id(trace)] = phases
            on_done(phases)
        schedule(self, timeline, trace, done)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SharedCluster, "schedule", recording)
        for name, (admission, faults, spec) in STREAMS.items():
            warehouse = build_test_warehouse(paper_workload)
            config = ServiceConfig(admission=admission,
                                   enable_result_cache=faults is None)
            service = (faulted_service(warehouse, config, faults)[0]
                       if faults else QueryService(warehouse, config))
            stream = generate_query_stream(paper_workload, spec)
            for item in stream:
                service.submit(item.query, tenant=item.tenant, at=item.at,
                               priority=item.priority)
            runs[name] = (admission, stream, service.drain().outcomes)
    return runs, timings


def reference_drain(admission_config, stream, outcomes):
    """Replay a drain's decisions — which query hit the result cache,
    how often each aborted, which trace each ran — on the reference
    engine; returns ticket id -> (queue wait, finish, phase timings)."""
    engine = reference.SimEngine()
    cluster = reference.SharedCluster(engine)
    admission = AdmissionController(engine, admission_config)
    replayed = {}

    def request(item):
        event = engine.event()
        admission.request(event.succeed, item.tenant, item.priority)
        return event

    def query(item, outcome):
        if item.at > 0:
            yield reference.Timeout(item.at)
        if outcome.cache_hit:
            yield reference.Timeout(CACHE_HIT_SECONDS)
            replayed[outcome.ticket_id] = (0.0, engine.now, None)
            return
        aborts = outcome.fault_retries_used + (outcome.status == "failed")
        wait = 0.0
        for attempt in range(aborts + 1):
            admit = yield request(item)
            wait += admit.queued_seconds
            if not admit.admitted:
                replayed[outcome.ticket_id] = (wait, None, None)
                return
            if attempt < aborts:
                admission.release(admit.grant)
                if attempt == FAULT_RETRIES:
                    replayed[outcome.ticket_id] = (wait, engine.now, None)
                    return
        run = reference.schedule_trace(engine, cluster,
                                       outcome.join_result.trace)
        yield run.done
        admission.release(admit.grant)
        replayed[outcome.ticket_id] = (wait, engine.now, run.timings)

    for item, outcome in zip(stream, outcomes):
        engine.process(query(item, outcome))
    engine.run()
    return replayed


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_drain_matches_the_engine_reference(drains, name):
    runs, timings = drains
    admission, stream, outcomes = runs[name]
    replayed = reference_drain(admission, stream, outcomes)
    for outcome in outcomes:
        wait, finished, phases = replayed[outcome.ticket_id]
        assert outcome.queue_wait == wait
        if finished is not None:
            assert outcome.finished_at == finished
        assert (phases is not None) == (outcome.ok and not outcome.cache_hit)
        if phases is not None:
            assert timings[id(outcome.join_result.trace)] == phases


def test_the_streams_cover_every_admission_path(drains):
    runs, _ = drains
    seen = {(outcome.status, outcome.reject_reason, outcome.degraded,
             outcome.cache_hit, outcome.fault_retries_used > 0)
            for _admission, _stream, outcomes in runs.values()
            for outcome in outcomes}
    assert seen >= {
        ("ok", "", False, False, False),
        ("ok", "", False, True, False),
        ("ok", "", True, False, False),
        ("ok", "", False, False, True),
        ("failed", "", False, False, True),
        ("rejected", "timeout", False, False, False),
        ("rejected", "timeout", False, False, True),
        ("rejected", "overload_shed", False, False, False),
    }, sorted(seen)


# ----------------------------------------------------------------------
# Invariants on random streams
# ----------------------------------------------------------------------
class GrantLog(Timeline):
    """A timeline noting each phase's grant: the step its request ran."""

    def __init__(self):
        super().__init__()
        self.grants = []

    def at(self, step, callback):
        if isinstance(callback, functools.partial) \
                and callback.func.__name__ == "grant":
            phase, run = callback.args[0], callback

            def callback():
                self.grants.append((phase, (self.now, self.depth)))
                run()

        super().at(step, callback)


@st.composite
def streams(draw):
    """Two to four traces of up to five random phases, each arriving
    at one of a few instants (so arrivals tie)."""
    stream = []
    for query in range(draw(st.integers(2, 4))):
        trace = Trace(f"q{query}")
        for index in range(draw(st.integers(1, 5))):
            earlier = (st.sets(st.sampled_from(trace.names()), max_size=2)
                       if len(trace) else st.just(set()))
            trace.add(f"q{query}.p{index}",
                      draw(st.sampled_from(sorted(CLASS_OF_KIND))),
                      draw(st.sampled_from([0.0, 1.0, 2.5, 10.0, 40.0])),
                      after=sorted(draw(earlier)),
                      streams_from=sorted(draw(earlier)))
        stream.append((draw(st.sampled_from([0.0, 0.0, 5.0, 12.5])),
                       trace))
    return stream


@settings(max_examples=150, deadline=None)
@given(streams())
def test_random_streams_keep_the_scheduling_invariants(stream):
    timeline, cluster, finished = GrantLog(), SharedCluster(), []
    for at, trace in stream:
        timeline.after(at, functools.partial(
            cluster.schedule, timeline, trace, finished.append))
    timeline.run()
    assert len(finished) == len(stream)
    timing = {name: phase for phases in finished
              for name, phase in phases.items()}
    arrival = {phase.name: at for at, trace in stream for phase in trace}
    by_class = defaultdict(list)
    for phase, requested in timeline.grants:
        start = timing[phase.name].start
        assert start >= arrival[phase.name]
        assert all(start >= timing[dep].end for dep in phase.after)
        assert all(start >= timing[dep].start
                   for dep in phase.streams_from)
        by_class[CLASS_OF_KIND[phase.kind]].append(
            (requested, timing[phase.name]))
    by_class.pop(None, None)
    for grants in by_class.values():
        # FIFO in (request time, causal depth): one holder at a time.
        steps = [requested for requested, _ in grants]
        assert steps == sorted(steps)
        for (_, held), (_, granted) in zip(grants, grants[1:]):
            assert granted.start >= held.end
