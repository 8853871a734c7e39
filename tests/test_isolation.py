"""Two queries running at once in one process keep to themselves.

A run's observers — the adaptive context, the scan's heavy-hitter
detector — are handed to that run's own code, never parked in a
module-level slot, so a query on another thread can neither feed them
nor be interrupted by them.  Each thread here runs over its own
warehouse with the interpreter switching threads every 10 µs, and every
run must equal the oracle and report exactly what it reports alone.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.adaptive import AdaptiveJoin
from repro.core.joins import algorithm_by_name
from repro.skew import set_skew_handling_enabled
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
    repartition = algorithm_by_name("repartition")
    previous = set_skew_handling_enabled(True)
    try:
        alone = [repartition.run(_loaded(case), case.query).stats
                 for case in cases]
        assert all(stats.hot_keys_detected > 0 for stats in alone)
        assert alone[0].hot_tuples_rerouted != alone[1].hot_tuples_rerouted
        runs = [[], []]

        def body(index):
            case, warehouse = cases[index], _loaded(cases[index])

            def scan():
                for _ in range(SKEW_RUNS):
                    runs[index].append(repartition.run(warehouse, case.query))
            return scan

        assert _in_threads(body(0), body(1)) == []
    finally:
        set_skew_handling_enabled(previous)
    for case, stats, results in zip(cases, alone, runs):
        expected = case.oracle_rows()
        for result in results:
            assert result.stats == stats
            assert oracle.compare_tables(result.result, expected) is None
