"""Chaos battery: every join algorithm under injected faults.

Differential testing against the single-node oracle
(:mod:`repro.testkit.oracle`): whatever the fault plan does — crashes
mid-scan, crashes mid-shuffle, stragglers, lossy links — every
algorithm must return the oracle's row multiset, scan every HDFS row
exactly once (committed work never double-counts), and pay a
non-negative recovery overhead on the simulated clock.

The tier-1 smoke set runs each fault class on two representative
algorithms; the full ``algorithms x faults`` grid is ``slow``-marked and
runs in the chaos CI job.
"""

from __future__ import annotations

import pytest

from repro import algorithm_by_name
from repro.core.joins import ExecutionContext
from repro.errors import FaultError, QueryAbortError, WorkerCrashError
from repro.faults import FaultInjector, FaultPlan
from repro.service import AdmissionConfig, ServiceConfig
from repro.service.server import FAULT_RETRIES
from repro.testkit import oracle
from tests.conftest import build_test_warehouse, faulted_service

#: name -> fault spec; one entry per fault class the engine recovers from.
FAULT_SPECS = {
    "crash-scan": "crash:w7@scan",
    "crash-shuffle": "crash:w3@shuffle",
    "double-crash": "crash:w7@scan,crash:w12@scan",
    "straggler": "slow:w5x4",
    "drop-shuffle": "drop:shuffle:0.05",
    "dup-shuffle": "dup:shuffle:0.1",
    "drop-transfer": "drop:transfer:0.1",
    "combo": "crash:w7@scan,slow:w5x4,drop:shuffle:0.02",
}

ALL_ALGORITHMS = [
    "db", "db(BF)", "broadcast", "repartition", "repartition(BF)",
    "zigzag", "zigzag-db", "semijoin", "perf",
]
#: Tier-1 representatives: one HDFS-side shuffling algorithm and one
#: database-side algorithm with a Bloom filter round trip.
SMOKE_ALGORITHMS = ["zigzag", "db(BF)"]


@pytest.fixture(scope="module")
def chaos_warehouse(paper_workload):
    """A private warehouse the chaos tests run their fault plans on."""
    return build_test_warehouse(paper_workload)


@pytest.fixture(scope="module")
def reference_rows(paper_workload, paper_query):
    """Canonical (sorted) oracle rows — compare via canonical_rows."""
    return oracle.canonical_rows(oracle.oracle_execute(
        paper_workload.t_table, paper_workload.l_table, paper_query
    ))


@pytest.fixture(scope="module")
def baselines(chaos_warehouse, paper_query):
    """Fault-free runs of every algorithm, for differential comparison."""
    return {
        name: algorithm_by_name(name).run(chaos_warehouse, paper_query)
        for name in ALL_ALGORITHMS
    }


def faults(spec, seed=11):
    """A run's context carrying a fault plan's injector."""
    return ExecutionContext(
        faults=FaultInjector(FaultPlan.from_spec(spec, seed=seed)))


def run_with_faults(warehouse, query, algorithm, spec, seed=11):
    """Run one algorithm under a fault plan; the run and its injector."""
    context = faults(spec, seed=seed)
    result = algorithm_by_name(algorithm).run(warehouse, query, context)
    return result, context.faults


def check_differential(result, baseline, reference_rows):
    """The three chaos invariants, shared by smoke and full grids."""
    assert oracle.canonical_rows(result.result) == reference_rows
    # Exactly-once: committed scan work matches the fault-free run even
    # though crashes discarded partial output and blocks were re-dealt.
    assert result.stats.hdfs_rows_scanned == \
        baseline.stats.hdfs_rows_scanned
    assert result.total_seconds >= baseline.total_seconds - 1e-9


class TestChaosSmoke:
    """Tier-1: every fault class on two representative algorithms."""

    @pytest.mark.parametrize("fault", sorted(FAULT_SPECS))
    @pytest.mark.parametrize("algorithm", SMOKE_ALGORITHMS)
    def test_differential(self, chaos_warehouse, paper_query,
                          reference_rows, baselines, algorithm, fault):
        result, _ = run_with_faults(
            chaos_warehouse, paper_query, algorithm, FAULT_SPECS[fault])
        check_differential(result, baselines[algorithm], reference_rows)


@pytest.mark.slow
class TestChaosFullGrid:
    """The full algorithms x faults grid (chaos CI job)."""

    @pytest.mark.parametrize("fault", sorted(FAULT_SPECS))
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_differential(self, chaos_warehouse, paper_query,
                          reference_rows, baselines, algorithm, fault):
        result, _ = run_with_faults(
            chaos_warehouse, paper_query, algorithm, FAULT_SPECS[fault])
        check_differential(result, baselines[algorithm], reference_rows)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seed_sweep_lossy_links(self, chaos_warehouse, paper_query,
                                    reference_rows, baselines, seed):
        result, _ = run_with_faults(
            chaos_warehouse, paper_query, "repartition",
            "drop:shuffle:0.05,dup:shuffle:0.05", seed=seed)
        check_differential(result, baselines["repartition"],
                           reference_rows)


class TestRecoveryAccounting:
    def test_scan_crash_discards_and_reassigns(self, chaos_warehouse,
                                               paper_query, baselines,
                                               reference_rows):
        result, injector = run_with_faults(
            chaos_warehouse, paper_query, "zigzag", "crash:w7@scan")
        check_differential(result, baselines["zigzag"], reference_rows)
        counters = injector.counters()
        assert counters["crashes"] == 1
        assert counters["blocks_reassigned"] > 0
        assert result.stats.hdfs_rows_discarded > 0
        # The recovery landed on the trace and stretched the makespan.
        recovery = [p for p in result.trace if p.kind == "recovery"]
        assert recovery, "crash recovery must appear on the trace"
        assert result.total_seconds > baselines["zigzag"].total_seconds

    def test_same_plan_same_seed_is_bit_identical(self, chaos_warehouse,
                                                  paper_query):
        spec = "crash:w7@scan,drop:shuffle:0.05"
        first, first_injector = run_with_faults(
            chaos_warehouse, paper_query, "repartition", spec)
        second, second_injector = run_with_faults(
            chaos_warehouse, paper_query, "repartition", spec)
        assert first.result.to_rows() == second.result.to_rows()
        assert first.total_seconds == second.total_seconds
        assert first_injector.fired == second_injector.fired
        assert first_injector.counters() == second_injector.counters()

    def test_duplicates_are_suppressed(self, chaos_warehouse, paper_query,
                                       baselines, reference_rows):
        result, injector = run_with_faults(
            chaos_warehouse, paper_query, "repartition", "dup:shuffle:0.2")
        check_differential(result, baselines["repartition"],
                           reference_rows)
        assert injector.counters()["duplicates_suppressed"] > 0

    def test_straggler_speculation(self, chaos_warehouse, paper_query,
                                   baselines, reference_rows):
        result, injector = run_with_faults(
            chaos_warehouse, paper_query, "zigzag", "slow:w5x4")
        check_differential(result, baselines["zigzag"], reference_rows)
        assert injector.counters()["speculations"] == 1

    def test_aggressive_loss_exhausts_retry_budget(self, chaos_warehouse,
                                                   paper_query):
        with pytest.raises(FaultError):
            run_with_faults(chaos_warehouse, paper_query,
                            "repartition", "drop:shuffle:0.9")

    def test_crashing_every_worker_is_unrecoverable(self, paper_workload,
                                                    paper_query):
        warehouse = build_test_warehouse(paper_workload)
        spec = ",".join(
            f"crash:w{worker}@scan"
            for worker in range(warehouse.jen.num_workers)
        )
        with pytest.raises(WorkerCrashError):
            algorithm_by_name("zigzag").run(warehouse, paper_query,
                                            faults(spec))


class TestServiceReAdmission:
    @staticmethod
    def _service(warehouse, spec):
        service, _injector = faulted_service(warehouse, ServiceConfig(
            admission=AdmissionConfig(slots=4, max_queue=64,
                                      queue_timeout=1e9,
                                      shed_fraction=None),
            enable_result_cache=False,
            enable_feedback=False,
        ), spec)
        return service

    def test_abort_is_re_admitted_once(self, paper_workload, paper_query,
                                       reference_rows):
        service = self._service(build_test_warehouse(paper_workload),
                                "abort:scan:1")
        outcome = service.execute(paper_query, algorithm="zigzag")
        assert outcome.status == "ok"
        assert outcome.fault_retries_used == 1
        assert oracle.canonical_rows(outcome.result) == reference_rows
        assert service.metrics.counter("service.fault_retries").value == 1

    def test_persistent_abort_fails_with_typed_error(self, paper_workload,
                                                     paper_query):
        service = self._service(build_test_warehouse(paper_workload),
                                "abort:scan:5")
        outcome = service.execute(paper_query, algorithm="zigzag")
        # The first attempt and its one re-admission both abort.
        assert outcome.status == "failed"
        assert outcome.fault_retries_used == FAULT_RETRIES == 1
        assert "QueryAbortError" in outcome.error
        assert service.metrics.counter("service.query_failed").value == 1

    def test_retry_timed_out_in_the_queue_keeps_its_clock(
            self, paper_workload, paper_query):
        """The first query aborts and the second takes the freed slot,
        so the first's re-admission times out in the queue."""
        service, _injector = faulted_service(
            build_test_warehouse(paper_workload), ServiceConfig(
                admission=AdmissionConfig(slots=1, queue_timeout=10.0,
                                          shed_fraction=None),
                enable_result_cache=False, enable_feedback=False),
            "abort:scan:1")
        aborted, other = (
            service.submit(paper_query, at=5.0, algorithm="zigzag")
            for _ in range(2))
        service.drain()
        outcome = aborted.outcome
        assert other.outcome.ok
        assert (outcome.status, outcome.reject_reason) \
            == ("rejected", "timeout")
        assert outcome.fault_retries_used == 1
        assert outcome.submitted_at <= outcome.admitted_at \
            <= outcome.finished_at
        assert outcome.queue_wait \
            == outcome.finished_at - outcome.submitted_at

    def test_abort_error_is_typed(self, paper_workload, paper_query):
        warehouse = build_test_warehouse(paper_workload)
        with pytest.raises(QueryAbortError) as excinfo:
            algorithm_by_name("zigzag").run(warehouse, paper_query,
                                            faults("abort:join:1"))
        assert excinfo.value.phase == "join"


class TestFailWorkerGuard:
    def test_fail_worker_mid_scan_changes_later_runs_only(
            self, paper_workload, paper_query, baselines, reference_rows):
        """``fail_worker`` from a read hook while a scan is in flight:
        the in-flight run finishes on the view it opened, exactly as
        without the failure, and the next run plans without the
        worker."""
        warehouse = build_test_warehouse(paper_workload)
        coordinator = warehouse.jen.coordinator
        planned = []
        plan_scan = coordinator.plan_scan

        def recording_plan(table_name, live):
            planned.append(tuple(live))
            return plan_scan(table_name, live)

        read_block = warehouse.hdfs.read_block

        def sabotage(*args, **kwargs):
            if 7 in coordinator.live_workers():
                warehouse.jen.fail_worker(7)
            return read_block(*args, **kwargs)

        coordinator.plan_scan = recording_plan
        warehouse.hdfs.read_block = sabotage
        try:
            in_flight = algorithm_by_name("zigzag").run(warehouse,
                                                        paper_query)
        finally:
            warehouse.hdfs.read_block = read_block
        after = algorithm_by_name("zigzag").run(warehouse, paper_query)
        baseline = baselines["zigzag"]
        assert oracle.canonical_rows(in_flight.result) == reference_rows
        assert in_flight.stats == baseline.stats
        assert in_flight.total_seconds == baseline.total_seconds
        assert 7 in planned[0] and 7 not in coordinator.live_workers()
        assert planned[1:] == [tuple(coordinator.live_workers())]
        assert oracle.canonical_rows(after.result) == reference_rows
        assert after.stats.hdfs_rows_scanned \
            == baseline.stats.hdfs_rows_scanned

    def test_fail_worker_between_queries_still_allowed(self,
                                                       paper_workload,
                                                       paper_query,
                                                       reference_rows):
        warehouse = build_test_warehouse(paper_workload)
        warehouse.jen.fail_worker(7)
        result = algorithm_by_name("zigzag").run(warehouse, paper_query)
        assert oracle.canonical_rows(result.result) == reference_rows
