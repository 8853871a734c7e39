"""Two queries running at once in one process keep to themselves.

Everything a run applies — skew handling, its observers (the adaptive
context, the scan's heavy-hitter detector), the service's Bloom builder
and join index — travels on that run's own
:class:`~repro.core.joins.base.ExecutionContext`, never parked in a
module-level slot or swapped onto the warehouse, so a query on another
thread can neither see nor change it.  The threads here switch every
10 µs; every run must equal the oracle and report exactly what it
reports alone.  The algorithm runs each get their own warehouse; the
two query services share one.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.adaptive import AdaptiveJoin
from repro.core.joins import ExecutionContext, algorithm_by_name
from repro.service import QueryService, ServiceConfig
from repro.testkit import generator, oracle

ADAPTIVE_RUNS = 5
#: Repartition runs per thread: enough for the two scans to overlap.
SKEW_RUNS = 8
#: Far above the second or so both threads need together.
JOIN_TIMEOUT_S = 60.0


@pytest.fixture
def fast_switching():
    """Switch threads every 10 µs so runs interleave inside their scans."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def _loaded(case):
    return generator.build_cell_warehouse(case, 4, "parquet")


def _in_threads(*bodies):
    """Run each body on its own thread; the exceptions they raised."""
    errors = []

    def guarded(body):
        try:
            body()
        except Exception as error:
            errors.append(error)

    threads = [threading.Thread(target=guarded, args=(body,), daemon=True)
               for body in bodies]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=JOIN_TIMEOUT_S)
        assert not thread.is_alive(), "a query thread did not finish"
    return errors


def test_adaptive_run_beside_a_plain_run(fast_switching):
    """A switching adaptive run on one thread, zigzag runs on another
    until it is done."""
    case = generator.edge_case("zipf-skew")
    expected = case.oracle_rows()
    adaptive = AdaptiveJoin(estimate_errors=(1.0, 0.1))
    alone = adaptive.run(_loaded(case), case.query).trace.metadata["adaptive"]
    assert alone["switched"]

    adaptive_warehouse, plain_warehouse = _loaded(case), _loaded(case)
    adaptive_results, plain_results = [], []
    done = threading.Event()

    def adaptive_thread():
        try:
            for _ in range(ADAPTIVE_RUNS):
                adaptive_results.append(
                    adaptive.run(adaptive_warehouse, case.query))
        finally:
            done.set()

    def plain_thread():
        zigzag = algorithm_by_name("zigzag")
        while not done.is_set():
            plain_results.append(zigzag.run(plain_warehouse, case.query))

    assert _in_threads(adaptive_thread, plain_thread) == []
    assert len(adaptive_results) == ADAPTIVE_RUNS and plain_results
    for result in adaptive_results + plain_results:
        assert oracle.compare_tables(result.result, expected) is None
    assert all("adaptive" not in result.trace.metadata
               for result in plain_results)
    assert [result.trace.metadata["adaptive"] for result in adaptive_results] \
        == [alone] * ADAPTIVE_RUNS


def test_two_skew_detecting_scans(fast_switching):
    """Skew-on repartition runs over two differently skewed cases: each
    scan's detector sees only its own keys, so each run moves exactly
    what it moves alone."""
    cases = [generator.edge_case("zipf-skew"), generator.skewed_case(1.8)]
    skew_on = [ExecutionContext(skew_handling=True)] * 2
    alone, runs = _repartitions_alone_and_together(cases, skew_on)
    assert all(stats.hot_keys_detected > 0 for stats in alone)
    assert alone[0].hot_tuples_rerouted != alone[1].hot_tuples_rerouted
    _assert_each_run_as_alone(cases, alone, runs)


def test_skew_on_beside_skew_off(fast_switching):
    """One case, skew handling on for one thread and off for the other:
    the option belongs to the run, so each moves what it moves alone."""
    case = generator.skewed_case(1.8)
    contexts = [ExecutionContext(skew_handling=True), ExecutionContext()]
    alone, runs = _repartitions_alone_and_together([case] * 2, contexts)
    assert alone[0].hot_tuples_rerouted > 0
    assert alone[1].hot_keys_detected == 0 == alone[1].hot_tuples_rerouted
    _assert_each_run_as_alone([case] * 2, alone, runs)


def _repartitions_alone_and_together(cases, contexts):
    """Each case's repartition stats alone, then ``SKEW_RUNS`` runs of
    each on its own thread."""
    repartition = algorithm_by_name("repartition")
    alone = [repartition.run(_loaded(case), case.query, context).stats
             for case, context in zip(cases, contexts)]
    runs = [[], []]

    def body(index):
        case, warehouse = cases[index], _loaded(cases[index])

        def scan():
            for _ in range(SKEW_RUNS):
                runs[index].append(repartition.run(
                    warehouse, case.query, contexts[index]))
        return scan

    assert _in_threads(body(0), body(1)) == []
    return alone, runs


def _assert_each_run_as_alone(cases, alone, runs):
    for case, stats, results in zip(cases, alone, runs):
        expected = case.oracle_rows()
        for result in results:
            assert result.stats == stats
            assert oracle.compare_tables(result.result, expected) is None


#: Two query streams, one ``(algorithm, arrival)`` per submission of
#: the same query.  Each repeats a build side and a BF(T′), so both the
#: Bloom and the join-index cache hit.
SERVICE_STREAMS = (
    (("zigzag", 0.0), ("zigzag", 1.0), ("repartition(BF)", 2.0)),
    (("db(BF)", 0.0), ("repartition(BF)", 1.0), ("repartition(BF)", 2.0),
     ("zigzag", 3.0)),
)


def _cache_counts(service):
    caches = (service.bloom_builder.cache,
              service.join_index_provider.cache)
    return [(cache.hits.value, cache.misses.value) for cache in caches]


def test_two_services_share_one_warehouse(fast_switching):
    """Two query services drain over one warehouse on two threads: each
    serves its queries from its own caches, with the hit and miss
    counts of its drain alone."""
    case = generator.skewed_case(1.8)
    expected = case.oracle_rows()
    config = ServiceConfig(enable_result_cache=False, enable_feedback=False)

    def service_for(warehouse, stream):
        service = QueryService(warehouse, config)
        tickets = [service.submit(case.query, algorithm=algorithm, at=at)
                   for algorithm, at in stream]
        return service, tickets

    alone = []
    for stream in SERVICE_STREAMS:
        service, _tickets = service_for(_loaded(case), stream)
        service.drain()
        alone.append(_cache_counts(service))
    assert all(hits > 0 for counts in alone for hits, _misses in counts)

    shared = _loaded(case)
    together = [service_for(shared, stream) for stream in SERVICE_STREAMS]
    assert _in_threads(*(service.drain for service, _ in together)) == []
    for (service, tickets), counts in zip(together, alone):
        assert _cache_counts(service) == counts
        for ticket in tickets:
            assert oracle.compare_tables(ticket.result(), expected) is None
