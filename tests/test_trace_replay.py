"""Tests for execution traces and their replay semantics.

``replay_trace`` computes the schedule in one pass over the phases.
``engine_replay`` below is the same schedule written as a
discrete-event simulation on the reference kernel
(``tests/engine_reference.py``) — a process per phase that waits on
barrier events and emits one event per chunk — and every
``PhaseTiming`` start and end of the one-pass replay must equal it bit
for bit: on every registered algorithm's trace
(fault-spliced, adaptive-grafted and sampled ones included), pipelining
on and off, at 1, 7 and 64 chunks, on random phase graphs, and across
the seeded differential grid (``slow``).
"""

import dataclasses
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.replay import (
    DEFAULT_CHUNKS,
    TimingResult,
    replay_trace,
)
from repro.sim.trace import Trace
from tests import test_trace_identity
from tests.engine_reference import SimEngine, schedule_trace


def engine_replay(trace, chunks=DEFAULT_CHUNKS, pipelining=True):
    """The reference: ``trace`` simulated event by event — the
    reference ``schedule_trace``, one process per phase, on a cluster
    that never contends.  Without pipelining every stream edge is a
    barrier."""
    if not pipelining:
        materialised = Trace(trace.label)
        materialised._phases = {
            phase.name: dataclasses.replace(
                phase, after=phase.after + phase.streams_from,
                streams_from=())
            for phase in trace}
        trace = materialised
    engine = SimEngine()
    run = schedule_trace(engine, SimpleNamespace(resource_for=lambda _: None),
                         trace, chunks=chunks)
    return TimingResult(label=trace.label, total_seconds=engine.run(),
                        phases=run.timings)


def assert_same_schedule(trace, chunks, pipelining, same_path=True):
    """The one-pass replay equals the engine's, float for float.

    Only the listing of phases that finish at one instant may differ:
    the pass lists the phases in the order they finish, ties in trace
    order, where the engine's ties came in its event order.  The
    critical path picks its terminal phase by that listing, so on the
    traces the algorithms build it must still be the engine's; a random
    graph of zero-second phases may tie differently and passes
    ``same_path=False``.
    """
    actual = replay_trace(trace, chunks=chunks, pipelining=pipelining)
    expected = engine_replay(trace, chunks=chunks, pipelining=pipelining)
    assert actual.label == expected.label
    assert actual.total_seconds == expected.total_seconds
    assert actual.phases == expected.phases
    position = {name: index for index, name in enumerate(trace.names())}
    assert list(actual.phases) == sorted(
        actual.phases,
        key=lambda name: (actual.phases[name].end, position[name]))
    if same_path:
        assert actual.critical_path(trace) == expected.critical_path(trace)
        assert actual.critical_path() == expected.critical_path()


def linear_trace(*durations):
    trace = Trace("linear")
    previous = None
    for index, duration in enumerate(durations):
        trace.add(f"p{index}", "cpu", duration,
                  after=[previous] if previous else [])
        previous = f"p{index}"
    return trace


class TestTraceConstruction:
    def test_duplicate_phase_rejected(self):
        trace = Trace()
        trace.add("a", "cpu", 1.0)
        with pytest.raises(SimulationError, match="duplicate"):
            trace.add("a", "cpu", 1.0)

    def test_unknown_dependency_rejected(self):
        trace = Trace()
        with pytest.raises(SimulationError, match="unknown phase"):
            trace.add("a", "cpu", 1.0, after=["ghost"])

    def test_negative_duration_rejected(self):
        trace = Trace()
        with pytest.raises(SimulationError, match="negative"):
            trace.add("a", "cpu", -1.0)

    def test_lookup_and_names(self):
        trace = linear_trace(1, 2)
        assert trace.phase("p1").seconds == 2
        assert trace.names() == ["p0", "p1"]
        with pytest.raises(SimulationError):
            trace.phase("nope")

    def test_total_work(self):
        assert linear_trace(1, 2, 3).total_work_seconds() == 6

    def test_describe_mentions_phases(self):
        text = linear_trace(1, 2).describe()
        assert "p0" in text and "p1" in text


class TestReplaySemantics:
    def test_sequential_chain_sums(self):
        result = replay_trace(linear_trace(10, 20, 5))
        assert result.total_seconds == pytest.approx(35, rel=1e-6)

    def test_independent_phases_overlap(self):
        trace = Trace()
        trace.add("a", "cpu", 10)
        trace.add("b", "cpu", 4)
        result = replay_trace(trace)
        assert result.total_seconds == pytest.approx(10)

    def test_streaming_consumer_faster_than_producer(self):
        """A fast consumer of a streamed producer ends just after it."""
        trace = Trace()
        trace.add("producer", "scan", 100)
        trace.add("consumer", "shuffle", 10, streams_from=["producer"])
        result = replay_trace(trace)
        assert result.total_seconds == pytest.approx(100, rel=0.03)

    def test_streaming_consumer_slower_than_producer(self):
        trace = Trace()
        trace.add("producer", "scan", 10)
        trace.add("consumer", "shuffle", 100, streams_from=["producer"])
        result = replay_trace(trace)
        assert result.total_seconds == pytest.approx(100, rel=0.03)

    def test_pipelining_off_serialises_stream_edges(self):
        trace = Trace()
        trace.add("producer", "scan", 50)
        trace.add("consumer", "shuffle", 50, streams_from=["producer"])
        pipelined = replay_trace(trace, pipelining=True)
        materialised = replay_trace(trace, pipelining=False)
        assert pipelined.total_seconds == pytest.approx(50, rel=0.05)
        assert materialised.total_seconds == pytest.approx(100, rel=1e-6)

    def test_barrier_blocks_until_finish(self):
        trace = Trace()
        trace.add("scan", "scan", 30)
        trace.add("bloom", "bloom", 1, after=["scan"])
        trace.add("export", "transfer", 5, after=["bloom"])
        result = replay_trace(trace)
        assert result.total_seconds == pytest.approx(36)
        assert result.phase("export").start == pytest.approx(31)

    def test_zero_duration_phase(self):
        trace = Trace()
        trace.add("a", "cpu", 0.0)
        trace.add("b", "cpu", 1.0, after=["a"])
        assert replay_trace(trace).total_seconds == pytest.approx(1.0)

    def test_phase_timings_recorded(self):
        result = replay_trace(linear_trace(2, 3))
        assert result.phase("p0").elapsed == pytest.approx(2)
        assert result.phase("p1").start == pytest.approx(2)
        with pytest.raises(SimulationError):
            result.phase("ghost")

    def test_invalid_chunk_count(self):
        with pytest.raises(SimulationError):
            replay_trace(linear_trace(1), chunks=0)

    def test_breakdown_report(self):
        text = replay_trace(linear_trace(1, 2)).breakdown()
        assert "p0" in text and "->" in text


class TestReplayProperties:
    @given(durations=st.lists(
        st.floats(0, 100, allow_nan=False), min_size=1, max_size=8,
    ))
    @settings(max_examples=40, deadline=None)
    def test_makespan_bounds(self, durations):
        """Makespan of any chain equals the sum; of any fan-out, the max."""
        chain = replay_trace(linear_trace(*durations))
        assert chain.total_seconds == pytest.approx(
            sum(durations), rel=1e-6, abs=1e-6
        )
        fan = Trace()
        for index, duration in enumerate(durations):
            fan.add(f"p{index}", "cpu", duration)
        fanned = replay_trace(fan)
        assert fanned.total_seconds == pytest.approx(
            max(durations), rel=1e-6, abs=1e-6
        )

    @given(
        producer=st.floats(0.1, 50, allow_nan=False),
        consumer=st.floats(0.1, 50, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_stream_pair_close_to_max(self, producer, consumer):
        """A streamed pair's makespan approximates max(p, c) and the
        pipelined run never beats max nor exceeds the serialised sum."""
        trace = Trace()
        trace.add("p", "scan", producer)
        trace.add("c", "cpu", consumer, streams_from=["p"])
        total = replay_trace(trace).total_seconds
        lower = max(producer, consumer)
        assert lower - 1e-9 <= total <= producer + consumer + 1e-9
        assert total <= lower * 1.05 + 1e-6


class TestCriticalPath:
    def test_linear_chain_is_whole_chain(self):
        trace = linear_trace(5, 10, 2)
        timing = replay_trace(trace)
        assert timing.critical_path(trace) == ["p0", "p1", "p2"]

    def test_fan_picks_slow_branch(self):
        trace = Trace()
        trace.add("fast", "cpu", 1)
        trace.add("slow", "cpu", 100)
        trace.add("sink", "cpu", 1, after=["fast", "slow"])
        timing = replay_trace(trace)
        assert timing.critical_path(trace) == ["slow", "sink"]

    def test_stream_producer_on_path_when_gating(self):
        trace = Trace()
        trace.add("scan", "scan", 100)
        trace.add("shuffle", "shuffle", 5, streams_from=["scan"])
        timing = replay_trace(trace)
        assert timing.critical_path(trace) == ["scan", "shuffle"]

    def test_early_dependency_not_on_path(self):
        trace = Trace()
        trace.add("prep", "cpu", 1)
        trace.add("long", "cpu", 50, after=["prep"])
        timing = replay_trace(trace)
        path = timing.critical_path(trace)
        # prep finished at t=1 and long ran 50s on its own: both are on
        # the chain because prep gated long's start.
        assert path == ["prep", "long"]

    def test_without_trace_returns_terminal(self):
        trace = linear_trace(1, 2)
        timing = replay_trace(trace)
        assert timing.critical_path() == ["p1"]

    def test_zigzag_critical_path_is_sensible(self, loaded_warehouse,
                                              paper_query):
        from repro import algorithm_by_name

        result = algorithm_by_name("zigzag").run(
            loaded_warehouse, paper_query
        )
        path = result.critical_path()
        assert path[-1] == "result_return"
        # The makespan chain must pass through the HDFS scan or the
        # database export — the two physical bottlenecks.
        assert any(name in path for name in ("hdfs_scan", "db_export"))


def with_phase(trace, name, **changes):
    """``trace`` with one phase's fields replaced in place — how a
    trace the checks of :meth:`Trace.add` never saw is built."""
    trace._phases[name] = dataclasses.replace(trace.phase(name), **changes)
    return trace


class TestBrokenGraphs:
    @pytest.mark.parametrize("edge", ["after", "streams_from"])
    def test_unknown_dependency_names_both_phases(self, edge):
        trace = Trace()
        trace.add("scan", "scan", 3.0)
        trace.add("join", "cpu", 1.0, after=["scan"])
        with_phase(trace, "join", **{edge: ("ghost",)})
        with pytest.raises(SimulationError,
                           match="'join' depends on unknown phase 'ghost'"):
            replay_trace(trace)

    @pytest.mark.parametrize("pipelining", [True, False])
    @pytest.mark.parametrize("edge", ["after", "streams_from"])
    def test_cycle_is_a_deadlock(self, edge, pipelining):
        trace = Trace()
        trace.add("a", "cpu", 1.0)
        trace.add("b", "cpu", 1.0, after=["a"])
        trace.add("c", "cpu", 1.0, after=["b"])
        with_phase(trace, "a", **{edge: ("c",)})
        with pytest.raises(SimulationError, match="deadlock"):
            engine_replay(trace, pipelining=pipelining)
        with pytest.raises(SimulationError, match="deadlock"):
            replay_trace(trace, pipelining=pipelining)


# ----------------------------------------------------------------------
# Bit for bit against the engine
# ----------------------------------------------------------------------
SCHEDULES = [
    pytest.param(pipelining, chunks, id=f"{mode}-{chunks}")
    for pipelining, mode in ((True, "pipelined"), (False, "materialised"))
    for chunks in (DEFAULT_CHUNKS, 7, 1)
]
CELLS = test_trace_identity.cells()


class TestEngineReference:
    """Every registered algorithm under every plane setting
    (``tests/test_trace_identity.py``'s cells)."""

    @pytest.mark.parametrize("pipelining,chunks", SCHEDULES)
    @pytest.mark.parametrize("variant,setting", CELLS,
                             ids=[f"{v}/{s}" for v, s in CELLS])
    def test_algorithm_trace(self, variant, setting, pipelining, chunks):
        trace = test_trace_identity.run_cell(variant, setting).trace
        assert_same_schedule(trace, chunks, pipelining)

    def test_cells_cover_spliced_grafted_and_sampled_traces(self):
        traces = [test_trace_identity.run_cell(*cell).trace
                  for cell in CELLS]
        assert any(phase.kind == "recovery"
                   for trace in traces for phase in trace)
        assert any(trace.metadata.get("adaptive", {}).get("switched")
                   for trace in traces)
        assert any("approx" in trace.metadata for trace in traces)

    @given(graph=st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.1, 1.0, 3.7, 1e-9, 250.0 / 3]),
            st.sets(st.integers(0, 7), max_size=2),
            st.sets(st.integers(0, 7), max_size=2),
        ),
        min_size=1, max_size=8,
    ), pipelining=st.booleans(), chunks=st.sampled_from([1, 7, 64]))
    @settings(max_examples=60, deadline=None)
    def test_random_phase_graphs(self, graph, pipelining, chunks):
        """Random DAGs: fan-in, fan-out, zero-second phases, several
        producers."""
        trace = Trace("random")
        for index, (seconds, after, streams) in enumerate(graph):
            trace.add(f"p{index}", "cpu", seconds,
                      after=[f"p{i}" for i in sorted(after) if i < index],
                      streams_from=[f"p{i}" for i in sorted(streams)
                                    if i < index])
        assert_same_schedule(trace, chunks, pipelining, same_path=False)


@pytest.mark.slow
def test_default_grid_replays_like_the_engine(monkeypatch):
    """Every trace the seeded differential grid replays."""
    from repro.core.joins import base
    from repro.testkit import generator

    replayed = []

    def recording_replay(trace, *args, **kwargs):
        replayed.append(trace)
        return replay_trace(trace, *args, **kwargs)

    monkeypatch.setattr(base, "replay_trace", recording_replay)
    cache = generator.WarehouseCache()
    grid = generator.default_grid()
    for case, cell in grid:
        generator.run_cell(case, cell, warehouse=cache.get(case, cell))
        for trace in replayed:
            assert_same_schedule(trace, DEFAULT_CHUNKS, True)
            assert_same_schedule(trace, 7, False)
        replayed.clear()
    assert len(grid) == 218
