"""Tests for the query-service plane (:mod:`repro.service`).

The integration tests replay the same query stream concurrently and
serially over one shared warehouse and require bit-identical results —
the service plane must never change an answer, only its timing.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import JoinError, ServiceError
from repro.service import (
    AdmissionConfig,
    AdmissionController,
    FairSharePolicy,
    QueryService,
    ServiceConfig,
    SharedCluster,
    StreamSpec,
    Timeline,
    build_template_query,
    generate_query_stream,
)
from repro.service import scheduler
from repro.service.cache import (
    CachingJoinIndexProvider,
    JoinIndexCache,
    build_side_key,
)
from repro.service.server import CACHE_HIT_SECONDS
from repro.sim.trace import Trace
from repro.testkit import oracle

ALL_ALGORITHMS = [
    "db", "db(BF)", "broadcast", "repartition", "repartition(BF)",
    "zigzag", "zigzag-db", "semijoin", "perf",
]


def _plain_config(slots: int) -> ServiceConfig:
    """Caches and feedback off: every submission runs the data plane."""
    return ServiceConfig(
        admission=AdmissionConfig(slots=slots, max_queue=64,
                                  queue_timeout=1e9, shed_fraction=None),
        enable_result_cache=False,
        enable_feedback=False,
    )


# ----------------------------------------------------------------------
# Concurrent == serial == reference, for every algorithm
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def stream_runs(loaded_warehouse, paper_query):
    """The full algorithm roster run twice: 16 slots, then one."""

    def run(slots):
        service = QueryService(loaded_warehouse, _plain_config(slots))
        tickets = {
            name: service.submit(paper_query, tenant=f"t{index % 3}",
                                 at=0.0, algorithm=name)
            for index, name in enumerate(ALL_ALGORITHMS)
        }
        return tickets, service.drain()

    return {"concurrent": run(16), "serial": run(1)}


class TestStreamCorrectness:
    @pytest.mark.parametrize("name", ALL_ALGORITHMS)
    def test_concurrent_matches_reference(self, name, stream_runs,
                                          paper_oracle):
        tickets, _report = stream_runs["concurrent"]
        oracle.assert_equivalent(tickets[name].result(), paper_oracle,
                                 label=name)

    @pytest.mark.parametrize("name", ALL_ALGORITHMS)
    def test_serial_matches_concurrent(self, name, stream_runs):
        concurrent, _ = stream_runs["concurrent"]
        serial, _ = stream_runs["serial"]
        assert (serial[name].result().to_rows()
                == concurrent[name].result().to_rows())

    def test_all_completed(self, stream_runs):
        for tickets, report in stream_runs.values():
            assert len(report.completed()) == len(ALL_ALGORITHMS)
            assert not report.rejected()
            assert all(ticket.done for ticket in tickets.values())

    def test_sustains_eight_in_flight(self, stream_runs):
        _tickets, report = stream_runs["concurrent"]
        gauge = report.metrics.get("admission.in_flight")
        assert gauge.high >= 8

    def test_serial_never_overlaps(self, stream_runs):
        _tickets, report = stream_runs["serial"]
        assert report.metrics.get("admission.in_flight").high == 1

    def test_concurrent_makespan_beats_serial(self, stream_runs):
        _t, concurrent = stream_runs["concurrent"]
        _t, serial = stream_runs["serial"]
        assert concurrent.makespan < serial.makespan
        # And strictly less than the sum of its own per-query times.
        assert concurrent.makespan < concurrent.serial_seconds()

    def test_report_renders(self, stream_runs):
        _tickets, report = stream_runs["concurrent"]
        text = report.render()
        assert "completed" in text and "admission.admitted" in text
        assert report.throughput() > 0


# ----------------------------------------------------------------------
# Semantic caches
# ----------------------------------------------------------------------
class TestCaching:
    def test_result_cache_hit_is_bit_identical(self, loaded_warehouse,
                                               paper_query,
                                               paper_oracle):
        service = QueryService(loaded_warehouse)
        first = service.submit(paper_query, algorithm="zigzag")
        service.drain()
        repeat = service.submit(paper_query, algorithm="repartition(BF)")
        report = service.drain()
        outcome = repeat.outcome
        assert outcome.cache_hit and outcome.algorithm == "cache"
        assert repeat.result().to_rows() == first.result().to_rows()
        oracle.assert_equivalent(repeat.result(), paper_oracle)
        # A cache hit never touches either cluster.
        assert report.makespan == pytest.approx(CACHE_HIT_SECONDS)
        assert service.result_cache.hit_rate() > 0

    def test_bloom_cache_shared_across_plans(self, paper_workload,
                                             loaded_warehouse, paper_query,
                                             paper_oracle):
        full = build_template_query(paper_workload, 1.0, 1.0)
        narrowed = build_template_query(paper_workload, 1.0, 0.5)
        assert full != narrowed
        service = QueryService(loaded_warehouse)
        tickets = [service.submit(query, algorithm="zigzag")
                   for query in (full, narrowed)]
        service.drain()
        # Same T predicate + join key => the merged BF(T') is reused.
        assert service.bloom_builder.cache.hits.value >= 1
        for ticket, query in zip(tickets, (full, narrowed)):
            expected = paper_oracle if query == paper_query \
                else oracle.oracle_execute(paper_workload.t_table,
                                           paper_workload.l_table, query)
            oracle.assert_equivalent(ticket.result(), expected)

    @pytest.fixture(scope="class")
    def unbanded(self, paper_workload, paper_query):
        """The paper query without its date band, and the oracle's
        answer to it (row-wise over every key match, so computed once)."""
        query = dataclasses.replace(paper_query, post_join_predicate=None)
        return query, oracle.oracle_execute(
            paper_workload.t_table, paper_workload.l_table, query)

    @pytest.mark.parametrize("band_first", [True, False])
    def test_join_index_cache_tells_band_from_key_only(
            self, loaded_warehouse, paper_query, paper_oracle, unbanded,
            band_first):
        """Same build side, with and without the band predicate: the
        banded and the key-only index never stand in for each other."""
        cases = ((paper_query, paper_oracle), unbanded)
        if not band_first:
            cases = cases[::-1]
        queries = [query for query, _expected in cases]
        workers = loaded_warehouse.jen.num_workers
        keys = [build_side_key(query, workers, "repartition")
                for query in queries]
        assert keys[0] != keys[1]
        service = QueryService(loaded_warehouse, _plain_config(1))
        tickets = [service.submit(query, algorithm="repartition", at=at)
                   for at, query in enumerate(queries)]
        service.drain()
        for ticket, (_query, expected) in zip(tickets, cases):
            oracle.assert_equivalent(ticket.result(), expected)
        # Even under one context key, matches() refuses the other kind.
        provider = CachingJoinIndexProvider(JoinIndexCache())

        def ask(*columns):
            return provider.for_query(keys[0])(*columns)

        build_keys = np.array([4, 1, 4, 2], dtype=np.int64)
        days = np.array([7, 3, 5, 5], dtype=np.int32)
        banded = ask(build_keys, days)
        key_only = ask(build_keys)
        assert banded.banded and not key_only.banded
        assert ask(build_keys, days.copy()) is not key_only
        assert ask(build_keys, days + 1).band_values[0] == 8

    def test_bloom_builder_uninstalled_after_drain(self, loaded_warehouse,
                                                   paper_query):
        """The Bloom cache reaches each query on its context; nothing is
        left on (or ever swapped onto) the shared database."""
        service = QueryService(loaded_warehouse)
        service.submit(paper_query, algorithm="broadcast")
        service.drain()
        assert "build_global_bloom" not in \
            loaded_warehouse.database.__dict__


# ----------------------------------------------------------------------
# Submission API
# ----------------------------------------------------------------------
class TestSubmission:
    def test_unknown_algorithm_rejected_at_submit(self, loaded_warehouse,
                                                  paper_query):
        service = QueryService(loaded_warehouse)
        with pytest.raises(JoinError, match="valid names"):
            service.submit(paper_query, algorithm="hyperjoin")

    def test_negative_arrival_rejected(self, loaded_warehouse, paper_query):
        service = QueryService(loaded_warehouse)
        with pytest.raises(ServiceError):
            service.submit(paper_query, at=-1.0)

    @pytest.mark.parametrize("at", [float("nan"), float("inf")])
    def test_non_finite_arrival_rejected(self, loaded_warehouse,
                                         paper_query, at):
        """A NaN arrival would run at t = 0 under a NaN ticket, and an
        infinite one would finish at inf and make the makespan inf."""
        service = QueryService(loaded_warehouse)
        with pytest.raises(ServiceError, match="finite"):
            service.submit(paper_query, at=at)
        assert service.drain().outcomes == []

    def test_result_before_drain_raises(self, loaded_warehouse,
                                        paper_query):
        service = QueryService(loaded_warehouse)
        ticket = service.submit(paper_query)
        with pytest.raises(ServiceError, match="not executed"):
            ticket.result()

    def test_rejected_ticket_raises(self, loaded_warehouse, paper_query):
        config = ServiceConfig(
            admission=AdmissionConfig(slots=1, max_queue=0),
            enable_result_cache=False,
            enable_feedback=False,
        )
        service = QueryService(loaded_warehouse, config)
        service.submit(paper_query, algorithm="broadcast")
        loser = service.submit(paper_query, algorithm="broadcast")
        report = service.drain()
        assert loser.outcome.status == "rejected"
        assert loser.outcome.reject_reason == "queue_full"
        assert len(report.rejected()) == 1
        with pytest.raises(ServiceError, match="rejected"):
            loser.result()


# ----------------------------------------------------------------------
# Admission control (driven directly, no data plane)
# ----------------------------------------------------------------------
def _outcome(resolved):
    assert resolved, "admission request should have resolved"
    return resolved[-1]


class TestAdmission:
    def test_immediate_admission_and_queue_full(self):
        controller = AdmissionController(Timeline(), AdmissionConfig(
            slots=1, max_queue=1, queue_timeout=100.0, shed_fraction=None))
        first, queued, overflow = [], [], []
        controller.request(first.append, "a")
        assert _outcome(first).admitted
        controller.request(queued.append, "a")
        assert not queued
        assert controller.queue_depth == 1
        controller.request(overflow.append, "a")
        assert _outcome(overflow).reason == "queue_full"
        controller.release(_outcome(first).grant)
        assert _outcome(queued).admitted
        assert controller.in_flight == 1

    def test_queue_timeout(self):
        timeline = Timeline()
        controller = AdmissionController(timeline, AdmissionConfig(
            slots=1, max_queue=8, queue_timeout=50.0, shed_fraction=None))
        starved = []
        controller.request(list().append, "a")
        controller.request(starved.append, "b")
        timeline.run()
        outcome = _outcome(starved)
        assert not outcome.admitted and outcome.reason == "timeout"
        assert outcome.queued_seconds == pytest.approx(50.0)

    def test_overload_sheds_best_effort_only(self):
        controller = AdmissionController(Timeline(), AdmissionConfig(
            slots=1, max_queue=4, queue_timeout=1e9, shed_fraction=0.5))
        shed, interactive = [], []
        for _ in range(3):  # queue depth then 2 = 0.5 * 4
            controller.request(list().append, "a")
        controller.request(shed.append, "b", priority=1)
        assert _outcome(shed).reason == "overload_shed"
        controller.request(interactive.append, "b", priority=0)
        assert not interactive  # still queued, not shed

    def test_double_release_raises(self):
        controller = AdmissionController(Timeline(), AdmissionConfig(slots=1))
        resolved = []
        controller.request(resolved.append, "a")
        grant = _outcome(resolved).grant
        controller.release(grant)
        with pytest.raises(ServiceError, match="released twice"):
            controller.release(grant)

    @pytest.mark.parametrize("kwargs", [
        {"slots": 0},
        {"max_queue": -1},
        {"queue_timeout": 0.0},
        {"slots": 2.5},
        {"shed_fraction": 1.5},
        {"queue_timeout": float("nan")},
        {"queue_timeout": float("inf")},
        {"max_queue": 2.5},
        {"shed_fraction": float("nan")},
        {"degrade_to_approx": True, "shed_fraction": None},
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises(ServiceError):
            AdmissionConfig(**kwargs)


class TestFairSharePolicy:
    @staticmethod
    def _request(priority, tenant, seq):
        return SimpleNamespace(priority=priority, tenant=tenant, seq=seq)

    def test_priority_beats_fairness(self):
        policy = FairSharePolicy()
        pending = [self._request(1, "idle", 0), self._request(0, "busy", 1)]
        assert policy.select(pending, {"busy": 5}) == 1

    def test_fair_share_breaks_priority_ties(self):
        policy = FairSharePolicy()
        pending = [self._request(0, "busy", 0), self._request(0, "idle", 1)]
        assert policy.select(pending, {"busy": 3, "idle": 0}) == 1

    def test_fifo_breaks_full_ties(self):
        policy = FairSharePolicy()
        pending = [self._request(0, "a", 7), self._request(0, "a", 3)]
        assert policy.select(pending, {}) == 1

    def test_empty(self):
        assert FairSharePolicy().select([], {}) is None


# ----------------------------------------------------------------------
# Shared-cluster scheduling
# ----------------------------------------------------------------------
def run_traces(*traces):
    """Run ``traces`` from t = 0 on one shared cluster; returns the
    makespan and each finished trace's phase timings."""
    timeline, cluster, finished = Timeline(), SharedCluster(), []
    for trace in traces:
        cluster.schedule(timeline, trace, finished.append)
    timeline.run()
    return timeline.now, finished


class TestSharedScheduling:
    def test_different_classes_overlap(self):
        scan = Trace("scan")
        scan.add("hdfs_scan", "hdfs_scan", 100.0)
        export = Trace("export")
        export.add("db_filter", "db_scan", 80.0)
        makespan, _ = run_traces(scan, export)
        assert makespan == pytest.approx(100.0)

    def test_same_class_serialises(self):
        traces = []
        for label in ("a", "b"):
            traces.append(Trace(label))
            traces[-1].add("hdfs_scan", "hdfs_scan", 100.0)
        makespan, _ = run_traces(*traces)
        assert makespan == pytest.approx(200.0)

    def test_latency_phases_never_contend(self):
        traces = []
        for label in ("a", "b", "c"):
            traces.append(Trace(label))
            traces[-1].add("startup", "latency", 10.0)
        makespan, _ = run_traces(*traces)
        assert makespan == pytest.approx(10.0)

    def test_streaming_pipelines_within_a_query(self, monkeypatch):
        monkeypatch.setattr(scheduler, "CHUNKS", 4)
        trace = Trace("pipe")
        trace.add("hdfs_scan", "hdfs_scan", 100.0)
        trace.add("shuffle", "shuffle", 50.0, streams_from=["hdfs_scan"])
        makespan, (timings,) = run_traces(trace)
        # The consumer's last chunk waits on the producer's: the shuffle
        # finishes one chunk (50/4 s) after the scan, not 50 s after.
        assert makespan == pytest.approx(100.0 + 50.0 / 4)
        assert max(timing.end for timing in timings.values()) \
            == pytest.approx(112.5)

    def test_barrier_dependencies_respected(self):
        trace = Trace("chain")
        trace.add("hdfs_scan", "hdfs_scan", 30.0)
        trace.add("bf_send", "bloom", 5.0, after=["hdfs_scan"])
        _, (timings,) = run_traces(trace)
        assert timings["bf_send"].start == pytest.approx(30.0)


# ----------------------------------------------------------------------
# Stream generation
# ----------------------------------------------------------------------
class TestStreams:
    def test_deterministic_and_round_robin(self, paper_workload):
        spec = StreamSpec(num_queries=12, templates=3, tenants=3, seed=5)
        first = generate_query_stream(paper_workload, spec)
        second = generate_query_stream(paper_workload, spec)
        assert first == second
        assert [item.tenant for item in first[:3]] == [
            "tenant-0", "tenant-1", "tenant-2"]
        assert {item.template for item in first} <= {0, 1, 2}
        assert [item.at for item in first] == [
            index * spec.arrival_gap for index in range(12)]

    def test_template_zero_is_the_paper_query(self, paper_workload,
                                              paper_query):
        assert build_template_query(paper_workload, 1.0, 1.0) == paper_query

    def test_bad_factors_rejected(self, paper_workload):
        with pytest.raises(ServiceError):
            build_template_query(paper_workload, 0.0, 1.0)
        with pytest.raises(ServiceError):
            StreamSpec(num_queries=0)
