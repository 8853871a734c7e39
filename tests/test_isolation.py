"""Two queries running at once in one process keep to themselves.

Everything a run applies — its observers (the adaptive context, an
invariant checker), the service's Bloom builder and join index, its
fault plan — travels on that run's own
:class:`~repro.core.joins.base.ExecutionContext`, never parked in a
module-level slot or swapped onto the warehouse; the hot keys its
shuffle counts stay on the run; and a crash takes its worker out of
that run's view of the cluster alone; so a query on another thread can
neither see nor change it.  The threads
here switch every 10 µs; every run must equal the oracle and report
exactly what it reports alone.  Runs may share a warehouse: the two
query services share one, and so do a faulted and a fault-free run.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import pytest

from repro.adaptive import AdaptiveJoin
from repro.core.joins import ExecutionContext, algorithm_by_name
from repro.faults import FaultInjector, FaultPlan
from repro.service import QueryService, ServiceConfig
from repro.testkit import generator, oracle
from repro.testkit.invariants import InvariantChecker

ADAPTIVE_RUNS = 5
#: Runs under an invariant checker beside the unchecked thread.
CHECKED_RUNS = 5
#: Repartition runs per thread: enough for the two scans to overlap.
SKEW_RUNS = 8
#: Runs under a fault plan beside the fault-free thread.
FAULTED_RUNS = 8
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


def _loaded(case, shuffle_skew=None):
    """``case`` on four workers, its shuffle priced at the case's skew
    or at ``shuffle_skew``."""
    warehouse = generator.build_cell_warehouse(case, 4, "parquet")
    if shuffle_skew is not None:
        warehouse.config = dataclasses.replace(warehouse.config,
                                               shuffle_skew=shuffle_skew)
    return warehouse


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
    alone = adaptive.run(_loaded(case), case.query).adaptive
    assert alone.switched

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
    assert all(result.adaptive is None for result in plain_results)
    assert [result.adaptive for result in adaptive_results] \
        == [alone] * ADAPTIVE_RUNS


def test_checked_run_beside_an_unchecked_run(fast_switching):
    """Zigzag runs under invariant checkers on one thread, unchecked
    zigzag runs on another until they are done: each checker counts the
    checks of its own run alone, none of the other thread's."""
    case = generator.skewed_case(1.8)
    expected = case.oracle_rows()
    zigzag = algorithm_by_name("zigzag")

    def checked_context():
        return ExecutionContext(observers=(InvariantChecker(),))

    context = checked_context()
    zigzag.run(_loaded(case), case.query, context)
    alone = context.observers[0].counts
    assert set(alone) == {"shuffle_delivery", "hybrid_partition",
                          "broadcast_routing", "bloom_contains"}

    checked_warehouse, plain_warehouse = _loaded(case), _loaded(case)
    checked, plain = [], []
    done = threading.Event()

    def checked_thread():
        try:
            for _ in range(CHECKED_RUNS):
                context = checked_context()
                result = zigzag.run(checked_warehouse, case.query, context)
                checked.append((result, context.observers[0].counts))
        finally:
            done.set()

    def plain_thread():
        while not done.is_set():
            plain.append(zigzag.run(plain_warehouse, case.query))

    assert _in_threads(checked_thread, plain_thread) == []
    assert len(checked) == CHECKED_RUNS and plain
    for result in [result for result, _counts in checked] + plain:
        assert oracle.compare_tables(result.result, expected) is None
    assert [counts for _result, counts in checked] \
        == [alone] * CHECKED_RUNS


def test_two_skew_detecting_scans(fast_switching):
    """Repartition runs over two differently skewed cases: each
    shuffle's count sees only its own keys, so each run moves exactly
    what it moves alone."""
    cases = [generator.edge_case("zipf-skew"), generator.skewed_case(1.8)]
    alone, runs = _repartitions_alone_and_together(cases)
    assert all(stats.hot_keys_detected > 0 for stats in alone)
    assert alone[0].hot_tuples_rerouted != alone[1].hot_tuples_rerouted
    _assert_each_run_as_alone(cases, alone, runs)


def test_skew_on_beside_skew_off(fast_switching):
    """One case, priced at its skew on one thread's warehouse and at 1
    on the other's: one splits and the other does not, and each moves
    what it moves alone."""
    case = generator.skewed_case(1.8)
    alone, runs = _repartitions_alone_and_together([case] * 2, (None, 1.0))
    assert alone[0].hot_tuples_rerouted > 0
    assert alone[1].hot_keys_detected == 0 == alone[1].hot_tuples_rerouted
    _assert_each_run_as_alone([case] * 2, alone, runs)


def test_faulted_run_beside_a_fault_free_run(fast_switching):
    """One warehouse: repartition runs under a ``crash:w2@scan`` plan on
    one thread, fault-free repartition runs on the other until they are
    done.  Each crash shrinks its own run's cluster only, so every
    fault-free run prices its solo trace phase by phase and second by
    second, and every faulted run fires what it fires alone."""
    case = generator.skewed_case(1.8)
    expected = case.oracle_rows()
    repartition = algorithm_by_name("repartition")

    def faulted():
        return ExecutionContext(
            faults=FaultInjector(FaultPlan.from_spec("crash:w2@scan")))

    plain_alone = _priced(repartition.run(_loaded(case), case.query))
    context = faulted()
    faulted_alone = _priced(
        repartition.run(_loaded(case), case.query, context))
    counters_alone = context.faults.counters()
    assert counters_alone["crashes"] == 1
    assert any(phase.kind == "recovery" for phase in faulted_alone[0])

    shared = _loaded(case)
    faulted_runs, plain_runs = [], []
    done = threading.Event()

    def faulted_thread():
        try:
            for _ in range(FAULTED_RUNS):
                context = faulted()
                result = repartition.run(shared, case.query, context)
                faulted_runs.append((result, context.faults.counters()))
        finally:
            done.set()

    def plain_thread():
        while not done.is_set():
            plain_runs.append(repartition.run(shared, case.query))

    assert _in_threads(faulted_thread, plain_thread) == []
    assert len(faulted_runs) == FAULTED_RUNS and plain_runs
    for result in [result for result, _counters in faulted_runs] \
            + plain_runs:
        assert oracle.compare_tables(result.result, expected) is None
    assert [counters for _result, counters in faulted_runs] \
        == [counters_alone] * FAULTED_RUNS
    for result, _counters in faulted_runs:
        assert _priced(result) == faulted_alone
    for result in plain_runs:
        assert _priced(result) == plain_alone


def _priced(result):
    """A run's phases in trace order, their simulated start and end
    seconds, and its movement statistics."""
    return (list(result.trace), list(result.timing.phases.values()),
            result.stats)


def _repartitions_alone_and_together(cases, shuffle_skews=(None, None)):
    """Each case's repartition stats alone, then ``SKEW_RUNS`` runs of
    each on its own thread, each case's warehouse priced at its
    ``shuffle_skews`` entry (``None``: the case's skew)."""
    repartition = algorithm_by_name("repartition")
    alone = [repartition.run(_loaded(case, skew), case.query).stats
             for case, skew in zip(cases, shuffle_skews)]
    runs = [[], []]

    def body(index):
        case = cases[index]
        warehouse = _loaded(case, shuffle_skews[index])

        def scan():
            for _ in range(SKEW_RUNS):
                runs[index].append(repartition.run(warehouse, case.query))
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
