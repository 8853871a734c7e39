"""The approximate tier: sampler, estimators, statistical contract.

The heart of this file is the seeded coverage battery: across hundreds
of independent seeded runs at a 95% confidence target, the exact
answer must fall inside the reported interval at a rate whose Wilson
binomial lower bound stays at or above 0.90.  The acceptance rule
itself is statistical machinery from :mod:`repro.testkit.statcheck`,
tested here too, with a known (and tiny) false-failure probability —
every seed is fixed, so the suite is fully deterministic.

Around the battery: property tests for the stratified block sampler,
the hardcoded t-table, exactness of full-rate runs on every aggregate
kind, monotone progressive refinement terminating at the exact answer,
empty-join semantics aligned with the oracle, and the degraded service
tier (overload sheds to approximate execution instead of rejecting,
with the exact tier untouched).
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.approx import (
    ApproxJoin,
    ApproxPolicy,
    plan_block_sample,
    t_critical,
)
from repro.approx.sampler import _primary_node
from repro.errors import JoinError, ServiceError
from repro.core.joins import ExecutionContext
from repro.faults import FaultInjector, FaultPlan
from repro.service import QueryService, ServiceConfig
from repro.service.admission import AdmissionConfig
from repro.testkit import generator, oracle
from repro.testkit.oracle import oracle_aggregate_cells
from repro.testkit.statcheck import (
    CoverageTracker,
    binomial_cdf,
    check_coverage,
    wilson_lower_bound,
)

#: The battery's sampling rate: enough blocks for the closed-form
#: intervals to be in their working regime (see the battery's docstring).
BATTERY_RATE = 0.5
BATTERY_SEEDS = range(1, 81)


@pytest.fixture(scope="module")
def kind_fixtures():
    """(case, warehouse, exact cells) per approximable aggregate kind."""
    fixtures = {}
    for kind in ("count", "sum", "avg"):
        case = generator.approx_case(kind)
        warehouse = generator.build_cell_warehouse(case, 4, "parquet")
        cells = oracle_aggregate_cells(
            case.t_table, case.l_table, case.query)
        fixtures[kind] = (case, warehouse, cells)
    return fixtures


# ----------------------------------------------------------------------
# Block sampler
# ----------------------------------------------------------------------
class TestBlockSampler:
    def _blocks(self, kind_fixtures):
        case, warehouse, _ = kind_fixtures["count"]
        return warehouse.hdfs.table_blocks(case.query.hdfs_table)

    def test_target_size_formula(self, kind_fixtures):
        blocks = self._blocks(kind_fixtures)
        total = len(blocks)
        assert plan_block_sample(blocks, 0.25, seed=1).target_blocks == \
            max(1, math.ceil(0.25 * total))
        assert plan_block_sample(blocks, 1.0, seed=1).target_blocks == total
        # min_blocks floors the target; tiny tables clamp at the total.
        assert plan_block_sample(
            blocks, 0.01, seed=1, min_blocks=4).target_blocks == 4
        assert plan_block_sample(
            blocks, 0.01, seed=1, min_blocks=10 * total
        ).target_blocks == total

    def test_ordering_is_a_permutation(self, kind_fixtures):
        blocks = self._blocks(kind_fixtures)
        sample = plan_block_sample(blocks, 0.3, seed=3)
        assert sorted(b.block_id for b in sample.ordering) == \
            sorted(b.block_id for b in blocks)

    def test_deterministic_in_seed(self, kind_fixtures):
        blocks = self._blocks(kind_fixtures)
        first = plan_block_sample(blocks, 0.3, seed=5)
        second = plan_block_sample(blocks, 0.3, seed=5)
        assert [b.block_id for b in first.ordering] == \
            [b.block_id for b in second.ordering]
        other = plan_block_sample(blocks, 0.3, seed=6)
        assert [b.block_id for b in other.ordering] != \
            [b.block_id for b in first.ordering]

    def test_prefixes_stay_stratified(self, kind_fixtures):
        """Any prefix holds a near-proportional share of every stratum."""
        blocks = self._blocks(kind_fixtures)
        sample = plan_block_sample(blocks, 0.5, seed=2)
        strata = {_primary_node(b) for b in blocks}
        per_stratum_total = {
            node: sum(1 for b in blocks if _primary_node(b) == node)
            for node in strata
        }
        for prefix_len in range(1, len(blocks) + 1):
            prefix = sample.ordering[:prefix_len]
            for node in strata:
                got = sum(1 for b in prefix if _primary_node(b) == node)
                expected = prefix_len * per_stratum_total[node] / len(blocks)
                assert abs(got - expected) <= 1.0


# ----------------------------------------------------------------------
# t-table
# ----------------------------------------------------------------------
class TestTCritical:
    def test_known_values(self):
        assert t_critical(0.95, math.inf) == pytest.approx(1.960)
        # Any finite dof rounds down to a tabulated entry — huge ones
        # land on the 120 row, never on the normal limit.
        assert t_critical(0.95, 10**9) == pytest.approx(1.980)
        assert t_critical(0.95, 1) == pytest.approx(12.706)
        assert t_critical(0.90, 10) == pytest.approx(1.812)
        assert t_critical(0.99, 2) == pytest.approx(9.925)

    def test_rounding_is_conservative(self):
        # dof rounds down to a tabulated entry (wider interval) ...
        assert t_critical(0.95, 35) == t_critical(0.95, 30)
        assert t_critical(0.95, 35) > t_critical(0.95, 40)
        # ... and confidence rounds up (also wider).
        assert t_critical(0.91, 5) == t_critical(0.95, 5)

    def test_degenerate_dof_is_unbounded(self):
        assert t_critical(0.95, 0) == math.inf
        assert t_critical(0.95, -3) == math.inf

    def test_untabulated_confidence_rejected(self):
        with pytest.raises(JoinError):
            t_critical(0.999, 10)


# ----------------------------------------------------------------------
# statcheck: the acceptance rule's own statistics
# ----------------------------------------------------------------------
class TestStatcheck:
    def test_wilson_known_value(self):
        assert wilson_lower_bound(95, 100) == pytest.approx(0.888, abs=1e-3)

    def test_wilson_edges_and_monotonicity(self):
        assert wilson_lower_bound(0, 0) == 0.0
        assert 0.0 < wilson_lower_bound(100, 100) < 1.0
        bounds = [wilson_lower_bound(k, 50) for k in range(51)]
        assert bounds == sorted(bounds)
        with pytest.raises(ValueError):
            wilson_lower_bound(5, 10, z_confidence=0.42)

    def test_binomial_cdf_matches_brute_force(self):
        n, p = 10, 0.3
        for k in range(n + 1):
            brute = sum(
                math.comb(n, i) * p**i * (1 - p) ** (n - i)
                for i in range(k + 1)
            )
            assert binomial_cdf(k, n, p) == pytest.approx(brute, rel=1e-12)

    def test_binomial_cdf_edges(self):
        assert binomial_cdf(-1, 10, 0.5) == 0.0
        assert binomial_cdf(10, 10, 0.5) == 1.0
        assert binomial_cdf(3, 10, 0.0) == 1.0
        assert binomial_cdf(3, 10, 1.0) == 0.0

    def test_check_coverage_verdicts(self):
        passing = check_coverage(191, 200, stated_coverage=0.95)
        assert passing.passed
        assert passing.lower_bound == pytest.approx(0.9167, abs=1e-3)
        failing = check_coverage(160, 200, stated_coverage=0.95)
        assert not failing.passed
        # The rule's false-failure probability is the binomial tail of
        # the failing region under the stated coverage — a property of
        # the rule, identical for any observed tally.
        assert 0.0 < passing.false_failure_probability < 0.5
        assert failing.false_failure_probability == \
            passing.false_failure_probability
        with pytest.raises(ValueError):
            check_coverage(0, 0, stated_coverage=0.95)

    def test_tracker_counts_missing_groups_as_misses(self):
        from repro.approx.estimator import CellEstimate

        tracker = CoverageTracker(stated_coverage=0.95)
        cells = {(("a",), "count"): CellEstimate(10.0, 5.0, 5.0)}
        exact = {(("a",), "count"): 12.0, (("b",), "count"): 3.0}
        tracker.record_cells(cells, exact)
        assert (tracker.trials, tracker.hits) == (2, 1)
        # The supported filter skips aggregates outside the contract.
        tracker = CoverageTracker(stated_coverage=0.95)
        tracker.record_cells(cells, exact, supported=set())
        assert tracker.trials == 0


# ----------------------------------------------------------------------
# Exactness: a full sample is the exact algorithm
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", generator.APPROX_KINDS)
@pytest.mark.parametrize("algorithm", ["approx", "approx(BF)"])
def test_full_sample_reproduces_oracle(kind, algorithm):
    case = generator.approx_case(kind)
    cell = generator.ConfigCell(algorithm, workers=4, approx=1.0)
    result = generator.run_cell(case, cell)
    oracle.assert_equivalent(result, case.oracle_rows(),
                             label=f"{case.name}/{cell.label()}")


def test_full_sample_cells_are_exact(kind_fixtures):
    case, warehouse, exact_cells = kind_fixtures["sum"]
    join = ApproxJoin(sample_rate=1.0, seed=3)
    estimate = join.run(warehouse, case.query).approx.estimate
    assert estimate.exact
    assert estimate.cells.keys() == exact_cells.keys()
    for key, cell in estimate.cells.items():
        assert cell.exact and cell.half_width == 0.0
        assert cell.estimate == pytest.approx(exact_cells[key])


# ----------------------------------------------------------------------
# The statistical oracle contract (the tentpole acceptance criterion)
# ----------------------------------------------------------------------
def test_interval_coverage_battery(kind_fixtures):
    """>= 240 seeded runs at 95% confidence: Wilson lower bound >= 0.90.

    One trial is one ``(seed, group, aggregate)`` interval; a group the
    sample never saw counts as a miss.  The battery pools the count,
    sum and avg estimator paths — min/max report no interval and are
    excluded via ``unsupported``.  Every seed is fixed, so the observed
    tally is deterministic; the binomial acceptance rule exists so that
    a *re-randomised* battery would still pass with known probability
    (the verdict carries the rule's exact false-failure rate).
    """
    tracker = CoverageTracker(stated_coverage=0.95)
    runs = 0
    for kind in ("count", "sum", "avg"):
        case, warehouse, exact_cells = kind_fixtures[kind]
        supported_names = {key[1] for key in exact_cells}
        for seed in BATTERY_SEEDS:
            join = ApproxJoin(sample_rate=BATTERY_RATE, confidence=0.95,
                              seed=seed)
            estimate = join.run(warehouse, case.query).approx.estimate
            supported = supported_names - set(estimate.unsupported)
            tracker.record_cells(estimate.cells, exact_cells,
                                 supported=supported)
            runs += 1
    assert runs >= 200
    verdict = tracker.verdict(min_lower_bound=0.90)
    assert verdict.trials >= 200
    assert verdict.passed, (
        f"{verdict.describe()}\nfirst misses: {tracker.misses[:5]}"
    )
    # The acceptance rule itself must be sharp: if the estimator truly
    # covered at its stated rate, this battery would practically never
    # fail (the false-failure probability is astronomically small).
    assert verdict.false_failure_probability < 1e-6


# ----------------------------------------------------------------------
# What sampling buys: pinned seconds on a scan-dominated workload
# ----------------------------------------------------------------------
#: Sample rate -> pinned simulated seconds; exact repartition 111.087 s.
#: Rate 0.1 scans the same 4 of 16 blocks as 0.25 (the min_blocks floor).
SPEEDUP_SECONDS = {0.1: 29.649, 0.25: 29.649, 0.5: 56.808, 1.0: 111.087}


@pytest.fixture(scope="module")
def scan_dominated():
    """Few T rows, many L rows, two workers: the HDFS scan that
    sampling shrinks owns the critical path."""
    from repro import algorithm_by_name

    case = generator.generate_data_case(12, t_rows=60, l_rows=48_000)
    warehouse = generator.build_cell_warehouse(case, 2, "parquet")
    exact = algorithm_by_name("repartition").run(warehouse, case.query)
    cells = oracle_aggregate_cells(case.t_table, case.l_table, case.query)
    return case, warehouse, exact.total_seconds, cells


@pytest.mark.parametrize("rate", list(SPEEDUP_SECONDS))
def test_sampled_speedup_over_exact_repartition(scan_dominated, rate):
    case, warehouse, exact_seconds, exact_cells = scan_dominated
    assert exact_seconds == pytest.approx(111.087, abs=5e-4)
    join = ApproxJoin(sample_rate=rate, confidence=0.95, seed=11)
    run = join.run(warehouse, case.query)
    assert run.total_seconds == pytest.approx(SPEEDUP_SECONDS[rate],
                                              abs=5e-4)
    if rate <= 0.25:
        assert exact_seconds / run.total_seconds >= 1.0
    # One seeded draw, not a coverage rate (the battery above owns
    # that): sample seed 11 happens to cover every cell.
    estimate = run.approx.estimate
    contained = [
        key in estimate.cells
        and estimate.cells[key].lower <= truth <= estimate.cells[key].upper
        for key, truth in exact_cells.items()
        if key[1] not in estimate.unsupported
    ]
    assert contained == [True] * 5
    assert estimate.exact == (rate == 1.0)
    if estimate.exact:
        oracle.assert_equivalent(run.result, case.oracle_rows(),
                                 label="approx@1")


def test_sampled_shuffle_ships_its_bytes(kind_fixtures):
    """The sampled rows' shuffle counts in ``bytes_shipped`` like any
    other shuffle: every shuffled row at the wire row's width."""
    case, warehouse, _ = kind_fixtures["count"]
    run = ApproxJoin(sample_rate=0.25, seed=11).run(warehouse, case.query)
    shuffle = run.trace.phase("jen_shuffle")
    width = warehouse.jen.distributed_scan(
        case.query, warehouse.jen.open_cluster()).wire_tables[0].row_bytes()
    assert shuffle.tuples == run.stats.hdfs_tuples_shuffled > 0
    assert run.trace.metadata["bytes_shipped"]["shuffle"] \
        == shuffle.tuples * width


# ----------------------------------------------------------------------
# Progressive refinement
# ----------------------------------------------------------------------
def test_progressive_refines_monotonically_to_exact(kind_fixtures):
    case, warehouse, _ = kind_fixtures["count"]
    join = ApproxJoin(sample_rate=1.0, progressive=True, seed=4)
    run = join.run(warehouse, case.query)
    snapshots = run.approx.snapshots
    assert len(snapshots) == snapshots[-1].blocks_total

    fractions = [snap.fraction_scanned for snap in snapshots]
    assert fractions == sorted(fractions)
    widths: dict = {}
    for snap in snapshots:
        for key, cell in snap.cells.items():
            assert cell.half_width <= widths.get(key, math.inf)
            widths[key] = cell.half_width

    final = snapshots[-1]
    assert final.exact
    assert all(cell.half_width == 0.0 for cell in final.cells.values())
    oracle.assert_equivalent(run.result, case.oracle_rows(),
                             label="progressive-final")


def test_progressive_stops_early_on_error_target(kind_fixtures):
    case, warehouse, _ = kind_fixtures["count"]
    join = ApproxJoin(sample_rate=1.0, progressive=True, seed=11,
                      max_error=0.5)
    report = join.run(warehouse, case.query).approx
    estimate = report.estimate
    assert estimate.blocks_scanned < estimate.blocks_total
    assert estimate.blocks_scanned >= join.policy.min_blocks
    assert report.snapshots[-1].max_relative_error() <= 0.5


# ----------------------------------------------------------------------
# Empty joins: aligned with the oracle
# ----------------------------------------------------------------------
def test_oracle_empty_join_yields_schema_only():
    case = generator.edge_case("empty-result")
    result = oracle.oracle_execute(case.t_table, case.l_table, case.query)
    assert result.num_rows == 0
    expected = list(case.query.group_by) + [
        spec.output_name() for spec in case.query.aggregates
    ]
    assert list(result.schema.names) == expected
    assert oracle_aggregate_cells(
        case.t_table, case.l_table, case.query) == {}


@pytest.mark.parametrize("sample_rate", [0.3, 1.0])
def test_approx_empty_join_matches_oracle(sample_rate):
    case = generator.edge_case("empty-result")
    warehouse = generator.build_cell_warehouse(case, 4, "parquet")
    join = ApproxJoin(sample_rate=sample_rate, seed=2)
    run = join.run(warehouse, case.query)
    assert run.result.num_rows == 0
    assert run.approx.estimate.cells == {}
    diff = oracle.compare_tables(
        run.result,
        oracle.oracle_execute(case.t_table, case.l_table, case.query),
        label=f"approx@{sample_rate:g}/empty",
    )
    assert diff is None


# ----------------------------------------------------------------------
# Faults and policy validation
# ----------------------------------------------------------------------
def test_armed_fault_plan_rejects_approx(kind_fixtures):
    case, _, _ = kind_fixtures["count"]
    warehouse = generator.build_cell_warehouse(case, 30, "parquet")
    context = ExecutionContext(
        faults=FaultInjector(FaultPlan.from_spec("crash:w2@scan")))
    with pytest.raises(JoinError, match="armed fault plan"):
        ApproxJoin(sample_rate=0.5, seed=1).run(warehouse, case.query,
                                                context)


def test_policy_validation():
    with pytest.raises(ServiceError):
        ApproxPolicy(sample_rate=0.0)
    with pytest.raises(ServiceError):
        ApproxPolicy(sample_rate=1.5)
    with pytest.raises(ServiceError):
        ApproxPolicy(confidence=0.3)
    with pytest.raises(ServiceError):
        ApproxPolicy(confidence=1.0)
    with pytest.raises(ServiceError):
        ApproxPolicy(max_error=-0.1)
    with pytest.raises(ServiceError):
        ApproxPolicy(min_blocks=0)


# ----------------------------------------------------------------------
# The degraded service tier
# ----------------------------------------------------------------------
#: Admission shape that sheds best-effort arrivals almost immediately:
#: one slot, a short queue, and a shed threshold of two waiters.  The
#: queue timeout is effectively infinite so degraded requests survive
#: the queue instead of expiring.
_OVERLOAD = AdmissionConfig(
    slots=1, max_queue=4, shed_fraction=0.5, queue_timeout=1e9)
#: The same admission with shed best-effort arrivals degraded to the
#: approximate tier instead of rejected.
_DEGRADE = dataclasses.replace(_OVERLOAD, degrade_to_approx=True)


def _submit_overload(service, filler_query, probe_query,
                     probe_tenant="beta"):
    """Enough priority-0 fillers to trip shedding, then probes."""
    for _ in range(3):
        service.submit(filler_query, tenant="alpha", priority=0)
    tickets = [
        service.submit(probe_query, tenant=probe_tenant, priority=1)
        for _ in range(2)
    ]
    return tickets


class TestDegradedTier:
    def test_overload_sheds_to_approx(self, kind_fixtures):
        filler_case, warehouse, _ = kind_fixtures["count"]
        probe_case, _, _ = kind_fixtures["sum"]
        service = QueryService(warehouse, ServiceConfig(
            admission=_DEGRADE,
            enable_feedback=False,
        ))
        tickets = _submit_overload(
            service, filler_case.query, probe_case.query)
        report = service.drain()
        by_id = {outcome.ticket_id: outcome for outcome in report.outcomes}

        probes = [by_id[t.id] for t in tickets]
        degraded = [o for o in probes if o.degraded]
        assert degraded, "no probe was shed to the degraded tier"
        for outcome in degraded:
            assert outcome.status == "ok"
            assert outcome.algorithm == "approx"
            approx = outcome.join_result.approx
            assert approx.cells
            assert 0.0 < approx.estimate.fraction_scanned <= 1.0
        assert "~approx@" in report.render()
        assert service.metrics.counter(
            "admission.degraded_to_approx").value >= len(degraded)
        assert service.metrics.counter("approx.runs").value >= len(degraded)

    def test_exact_tier_unaffected(self, kind_fixtures):
        filler_case, warehouse, _ = kind_fixtures["count"]
        probe_case, _, _ = kind_fixtures["sum"]
        service = QueryService(warehouse, ServiceConfig(
            admission=_DEGRADE,
            enable_feedback=False,
        ))
        _submit_overload(service, filler_case.query, probe_case.query)
        report = service.drain()
        for outcome in report.outcomes:
            if outcome.tenant == "alpha":
                assert not outcome.degraded
                assert outcome.status == "ok"
                oracle.assert_equivalent(
                    outcome.result, filler_case.oracle_rows(),
                    label="exact-tier")

    def test_without_degrade_overload_rejects(self, kind_fixtures):
        filler_case, warehouse, _ = kind_fixtures["count"]
        probe_case, _, _ = kind_fixtures["sum"]
        service = QueryService(warehouse, ServiceConfig(
            admission=_OVERLOAD,
            enable_feedback=False,
        ))
        tickets = _submit_overload(
            service, filler_case.query, probe_case.query)
        report = service.drain()
        by_id = {outcome.ticket_id: outcome for outcome in report.outcomes}
        probes = [by_id[t.id] for t in tickets]
        assert all(o.status == "rejected" and
                   o.reject_reason == "overload_shed" for o in probes)

    def test_minmax_query_falls_back_to_exact(self, kind_fixtures):
        filler_case, warehouse, _ = kind_fixtures["count"]
        probe_case = generator.approx_case("minmax")
        service = QueryService(warehouse, ServiceConfig(
            admission=_DEGRADE,
            enable_feedback=False,
        ))
        tickets = _submit_overload(
            service, filler_case.query, probe_case.query)
        report = service.drain()
        by_id = {outcome.ticket_id: outcome for outcome in report.outcomes}
        probes = [by_id[t.id] for t in tickets]
        # Shed to the degraded tier, but min/max has no closed-form
        # interval: the service runs the exact plan and says so.
        assert all(o.status == "ok" and not o.degraded for o in probes)
        assert service.metrics.counter("approx.unsupported").value >= 1
        # The probe ran on the service's (filler-case) warehouse, so
        # the exact answer is its query over the filler case's tables.
        expected = oracle.oracle_execute(
            filler_case.t_table, filler_case.l_table, probe_case.query)
        for outcome in probes:
            oracle.assert_equivalent(
                outcome.result, expected, label="minmax-fallback")

    def test_service_policy_sets_the_sample_rate(self, kind_fixtures):
        filler_case, warehouse, _ = kind_fixtures["count"]
        probe_case, _, _ = kind_fixtures["sum"]
        service = QueryService(warehouse, ServiceConfig(
            admission=_DEGRADE,
            enable_feedback=False,
            approx_policy=ApproxPolicy(sample_rate=0.5),
        ))
        tickets = _submit_overload(
            service, filler_case.query, probe_case.query)
        report = service.drain()
        by_id = {outcome.ticket_id: outcome for outcome in report.outcomes}
        degraded = [o for o in (by_id[t.id] for t in tickets) if o.degraded]
        assert degraded
        assert all(o.join_result.approx.policy.sample_rate == 0.5
                   for o in degraded)

    def test_degraded_results_never_enter_result_cache(self, kind_fixtures):
        filler_case, warehouse, _ = kind_fixtures["count"]
        probe_case, _, _ = kind_fixtures["sum"]
        service = QueryService(warehouse, ServiceConfig(
            admission=_DEGRADE,
            enable_feedback=False, enable_result_cache=True,
        ))
        tickets = _submit_overload(
            service, filler_case.query, probe_case.query)
        report = service.drain()
        by_id = {outcome.ticket_id: outcome for outcome in report.outcomes}
        assert any(by_id[t.id].degraded for t in tickets)
        # Re-running the probe uncontended must execute (exactly), not
        # answer from a cache an approximate result would have polluted.
        ticket = service.submit(probe_case.query, tenant="beta", priority=0)
        second = service.drain()
        outcome = {o.ticket_id: o for o in second.outcomes}[ticket.id]
        assert outcome.status == "ok"
        assert not outcome.cache_hit
        assert not outcome.degraded
        oracle.assert_equivalent(
            outcome.result,
            oracle.oracle_execute(
                filler_case.t_table, filler_case.l_table,
                probe_case.query),
            label="post-degrade-exact")
