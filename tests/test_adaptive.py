"""The adaptive plane: mid-query re-optimization (repro.adaptive).

The heart of the tier is the forced-switch scenario from the paper's
estimate-error discussion: a seeded 10x sigma_L underestimate makes the
advisor mispick the DB-side plan, the runtime statistics collected
during the scan reveal the truth at the 25% checkpoint, and the run
switches to the HDFS-side plan — producing the oracle's exact rows
while the trace honestly pays for the abandoned work and the switch.

The rest covers the guard rails: no false switch on accurate
estimates, collect-only mode under fault plans and spent switch
budgets, re-optimizer unit behaviour (hysteresis, min-progress,
never-switch-back), banked-artifact reuse, and the service-plane
integration (metrics + feedback).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.adaptive import (
    AdaptiveJoin,
    ArtifactBank,
    ReOptimizer,
    RuntimeStatsCollector,
)
from repro.adaptive.reoptimizer import (
    HYSTERESIS,
    MAX_SWITCHES,
    MIN_PROGRESS,
    SWITCH_PENALTY_SECONDS,
)
from repro.core.advisor import JoinAdvisor
from repro.core.joins import algorithm_by_name
from repro.faults import FaultPlan
from repro.query.stats import sample_workload_estimate
from repro.testkit import generator, oracle

#: A seed whose workload flips db(BF) -> repartition once the true
#: sigma_L is observed (found by sweeping the generator; the advisor
#: mispicks the DB side under a 10x sigma_L underestimate).
FLIP_SEED = 2005
#: The paper-style estimate error: sigma_L underestimated 10x.
UNDERESTIMATE = (1.0, 0.1)
WORKERS = 4
FORMAT = "parquet"

#: Seeds whose advisor pick flips to a DB-side mispick under
#: UNDERESTIMATE: scenario -> (generator seed, workers, plan path,
#: switch scan progress, pinned simulated seconds of the correct static
#: plan, the adaptive run and the mispicked static plan).
SCENARIOS = {
    "sigma_l_under_10x": (FLIP_SEED, WORKERS, ("db(BF)", "repartition"),
                          0.25, (70.032, 76.704, 235.756)),
    "sigma_l_under_10x_bf": (2016, WORKERS, ("db(BF)", "repartition(BF)"),
                             0.25, (38.587, 43.587, 196.024)),
    "sigma_l_under_10x_zigzag": (2014, WORKERS, ("db(BF)", "zigzag"),
                                 0.25, (75.831, 84.488, 221.237)),
    "sigma_l_under_10x_wide": (2025, 30, ("db(BF)", "repartition"),
                               17 / 65, (11.067, 16.738, 35.132)),
}


@pytest.fixture(scope="module")
def flip_case():
    return generator.generate_data_case(FLIP_SEED)


def _warehouse(case):
    return generator.build_cell_warehouse(case, WORKERS, FORMAT)


@pytest.fixture(scope="module")
def switched_run(flip_case):
    """One forced-switch adaptive run, shared by the assertions below."""
    warehouse = _warehouse(flip_case)
    result = AdaptiveJoin(estimate_errors=UNDERESTIMATE).run(
        warehouse, flip_case.query
    )
    return result


# ----------------------------------------------------------------------
# The acceptance scenario: forced switch, oracle-identical
# ----------------------------------------------------------------------
class TestForcedSwitch:
    def test_advisor_mispicks_under_the_underestimate(self, flip_case):
        warehouse = _warehouse(flip_case)
        estimate = sample_workload_estimate(warehouse, flip_case.query)
        advisor = JoinAdvisor(warehouse.config)
        wrong = dataclasses.replace(
            estimate, sigma_l=max(estimate.sigma_l * 0.1, 1e-5)
        )
        assert advisor.decide(wrong).best.startswith("db")
        assert not advisor.decide(estimate).best.startswith("db")

    def test_switches_mid_query(self, switched_run):
        report = switched_run.trace.metadata["adaptive"]
        assert report["switched"]
        assert report["initial_algorithm"].startswith("db")
        assert not report["final_algorithm"].startswith("db")
        (switch,) = report["switches"]
        assert 0.0 < switch["at_progress"] < 1.0
        assert switch["target_seconds"] < switch["projected_remaining"]

    def test_result_identical_to_oracle(self, switched_run, flip_case):
        diff = oracle.compare_tables(
            switched_run.result, flip_case.oracle_rows(), label="adaptive"
        )
        assert diff is None

    def test_label_names_the_path(self, switched_run):
        report = switched_run.trace.metadata["adaptive"]
        path = "->".join(report["path"])
        assert switched_run.algorithm == f"adaptive[{path}]"

    def test_abandoned_work_is_priced_on_the_trace(self, switched_run):
        names = switched_run.trace.names()
        abandoned = [n for n in names if n.startswith("abandoned_")]
        assert "abandoned_startup" in abandoned
        assert "abandoned_db_filter" in abandoned
        assert "abandoned_hdfs_scan" in abandoned
        partial = switched_run.trace.phase("abandoned_hdfs_scan")
        assert partial.seconds > 0
        assert partial.tuples > 0

    def test_switch_penalty_is_a_trace_phase(self, switched_run):
        switch = switched_run.trace.phase("switch")
        assert switch.seconds == SWITCH_PENALTY_SECONDS
        # The post-switch plan starts from the switch, not a fresh
        # startup: coordination is already up.
        assert "startup" not in switched_run.trace.names()

    def test_abandoned_rows_counted_as_discarded(self, switched_run):
        report = switched_run.trace.metadata["adaptive"]
        abandoned_rows = report["segments"][0]["rows_scanned"]
        assert abandoned_rows > 0
        assert switched_run.stats.hdfs_rows_discarded >= abandoned_rows

    def test_banked_t_prime_is_reused(self, switched_run):
        report = switched_run.trace.metadata["adaptive"]
        assert report["bank"]["db_filter_reuses"] >= 1
        db_filter = switched_run.trace.phase("db_filter")
        assert db_filter.seconds == 0.0
        assert "banked" in db_filter.description

    @pytest.mark.parametrize("scenario", list(SCENARIOS))
    def test_adaptive_lands_between_the_static_plans(self, scenario):
        """Worse than clairvoyance (it pays the abandoned work and the
        switch), far better than stubbornness (it escapes the mispick)."""
        seed, workers, path, at_progress, pinned = SCENARIOS[scenario]
        case = generator.generate_data_case(seed)

        def run(join):
            return join.run(
                generator.build_cell_warehouse(case, workers, FORMAT),
                case.query)

        adaptive = run(AdaptiveJoin(estimate_errors=UNDERESTIMATE))
        report = adaptive.trace.metadata["adaptive"]
        assert tuple(report["path"]) == path
        assert report["switches"][0]["at_progress"] == at_progress
        correct = run(algorithm_by_name(path[-1]))
        mispick = run(algorithm_by_name(path[0]))
        seconds = tuple(result.timing.total_seconds
                        for result in (correct, adaptive, mispick))
        assert seconds == pytest.approx(pinned, abs=5e-4)
        assert seconds[0] < seconds[1] < seconds[2]
        assert oracle.compare_tables(
            adaptive.result, case.oracle_rows(), label=scenario) is None


# ----------------------------------------------------------------------
# Guard rails: when a switch must NOT happen
# ----------------------------------------------------------------------
class TestNoFalseSwitch:
    def test_accurate_estimates_never_switch(self, flip_case):
        result = AdaptiveJoin().run(_warehouse(flip_case), flip_case.query)
        report = result.trace.metadata["adaptive"]
        assert not report["switched"]
        assert result.algorithm == (
            f"adaptive[{report['final_algorithm']}]"
        )
        # Checkpoints still evaluated — and all voted to stay.
        assert report["evaluations"]
        assert oracle.compare_tables(
            result.result, flip_case.oracle_rows()) is None

    def test_unit_error_factors_never_switch(self, flip_case):
        result = AdaptiveJoin(estimate_errors=(1.0, 1.0)).run(
            _warehouse(flip_case), flip_case.query
        )
        assert not result.trace.metadata["adaptive"]["switched"]

    def test_fault_plan_runs_collect_only(self, flip_case):
        warehouse = _warehouse(flip_case)
        warehouse.arm_faults(FaultPlan.from_spec("crash:w2@scan"))
        try:
            result = AdaptiveJoin(estimate_errors=UNDERESTIMATE).run(
                warehouse, flip_case.query
            )
        finally:
            warehouse.disarm_faults()
        report = result.trace.metadata["adaptive"]
        assert not report["switched"]
        assert not report["evaluations"]  # checkpoints never consulted
        assert report["segments"][0]["rows_scanned"] > 0  # stats flowed
        assert oracle.compare_tables(
            result.result, flip_case.oracle_rows()) is None

    def test_zero_switch_budget_runs_collect_only(self, switched_run):
        """Once the run's one switch is spent, the budget left is zero:
        the post-switch segment collects statistics but no checkpoint
        consults a re-optimizer."""
        report = switched_run.trace.metadata["adaptive"]
        assert MAX_SWITCHES == 1 and len(report["switches"]) == 1
        assert report["segments"][-1]["rows_scanned"] > 0  # stats flowed
        assert report["evaluations"]
        assert {record["incumbent"] for record in report["evaluations"]} \
            == {report["initial_algorithm"]}


# ----------------------------------------------------------------------
# Re-optimizer unit behaviour
# ----------------------------------------------------------------------
class TestReOptimizer:
    def _fixture(self, flip_case):
        warehouse = _warehouse(flip_case)
        estimate = sample_workload_estimate(warehouse, flip_case.query)
        wrong = dataclasses.replace(
            estimate, sigma_l=max(estimate.sigma_l * 0.1, 1e-5)
        )
        advisor = JoinAdvisor(warehouse.config)
        incumbent = advisor.decide(wrong).best
        collector = RuntimeStatsCollector()
        # Observations matching the true workload: half the scan done,
        # true sigma_L revealed.
        collector.db_rows_scanned = flip_case.t_table.num_rows
        collector.db_rows_out = int(
            flip_case.t_table.num_rows * estimate.sigma_t
        )
        collector.total_blocks = 10
        collector.blocks_done = 5
        collector.rows_scanned = flip_case.l_table.num_rows // 2
        collector.rows_after_predicates = int(
            collector.rows_scanned * estimate.sigma_l
        )
        reoptimizer = ReOptimizer(advisor, incumbent, wrong)
        return collector, reoptimizer

    def test_observed_truth_triggers_a_switch(self, flip_case):
        collector, reoptimizer = self._fixture(flip_case)
        decision = reoptimizer.evaluate(collector, 0.5)
        assert decision is not None
        assert decision.target not in reoptimizer.exclude
        assert decision.observed_sigma_l == pytest.approx(
            collector.rows_after_predicates / collector.rows_scanned
        )

    def test_below_min_progress_never_fires(self, flip_case):
        # The observations that switch at 0.5 are not even costed below
        # the gate; at the gate they are.
        collector, reoptimizer = self._fixture(flip_case)
        assert reoptimizer.evaluate(collector, MIN_PROGRESS / 2) is None
        assert not reoptimizer.evaluations
        assert reoptimizer.evaluate(collector, MIN_PROGRESS) is not None
        # progress == 0.0 (the T' checkpoint) is exempt from the gate.
        collector.rows_scanned = 0
        collector.rows_after_predicates = 0
        assert reoptimizer.evaluate(collector, 0.0) is not None \
            or reoptimizer.evaluations

    def test_hysteresis_blocks_near_ties(self, flip_case):
        """An alternative cheaper than the incumbent's projected
        remaining cost, but inside the hysteresis margin, never fires."""
        collector, reoptimizer = self._fixture(flip_case)
        remaining = 100.0

        class TwoPlans:
            """Costs the incumbent at ``remaining`` (nothing sunk) and
            the alternative at ``cost`` once the penalty is added."""

            def __init__(self, cost):
                self.cost = cost

            def estimate_all(self, _observed):
                return {"incumbent": remaining,
                        "other": self.cost - SWITCH_PENALTY_SECONDS}

            def db_filter_seconds(self, _observed):
                return 0.0

            def scan_seconds(self, _observed):
                return 0.0

        def evaluate(cost):
            return ReOptimizer(TwoPlans(cost), "incumbent",
                               reoptimizer.base_estimate).evaluate(
                collector, 0.5)

        near_tie = (1.0 + HYSTERESIS) / 2 * remaining
        assert near_tie < remaining
        assert evaluate(near_tie) is None
        assert evaluate(0.99 * HYSTERESIS * remaining).target == "other"

    def test_excluded_algorithms_are_never_targets(self, flip_case):
        collector, reoptimizer = self._fixture(flip_case)
        baseline = reoptimizer.evaluate(collector, 0.5)
        assert baseline is not None
        blocked = ReOptimizer(
            reoptimizer.advisor, reoptimizer.incumbent,
            reoptimizer.base_estimate,
            exclude=frozenset({baseline.target}),
        )
        decision = blocked.evaluate(collector, 0.5)
        assert decision is None or decision.target != baseline.target

    def test_banked_t_prime_credits_alternatives(self, flip_case):
        collector, reoptimizer = self._fixture(flip_case)
        bank = ArtifactBank()
        bank.bank_db_filter("T", parts=[], matched=1)
        credited = ReOptimizer(
            reoptimizer.advisor, reoptimizer.incumbent,
            reoptimizer.base_estimate,
            bank=bank,
        )
        plain = reoptimizer.evaluate(collector, 0.5)
        with_credit = credited.evaluate(collector, 0.5)
        assert plain is not None and with_credit is not None
        assert with_credit.target_seconds < plain.target_seconds


# ----------------------------------------------------------------------
# The observer seam: a run handed no observer is a plain run
# ----------------------------------------------------------------------
class TestHookSeam:
    def test_static_algorithms_untouched_by_the_seam(self, flip_case):
        warehouse = _warehouse(flip_case)
        result = algorithm_by_name("repartition").run(
            warehouse, flip_case.query
        )
        assert "adaptive" not in result.trace.metadata
        assert oracle.compare_tables(
            result.result, flip_case.oracle_rows()) is None


# ----------------------------------------------------------------------
# Satellite: the testkit's estimate-error axis
# ----------------------------------------------------------------------
class TestEstimateErrorAxis:
    def test_default_grid_carries_adaptive_error_cells(self):
        cells = [
            (case, cell) for case, cell in generator.default_grid()
            if cell.estimate_error is not None
        ]
        assert len(cells) >= len(generator.ESTIMATE_ERROR_AXIS)
        assert all(cell.algorithm == "adaptive" for _, cell in cells)
        labels = {cell.label() for _, cell in cells}
        assert any("esterr[1x,0.1x]" in label for label in labels)

    def test_error_cell_matches_oracle(self, flip_case):
        cell = generator.ConfigCell(
            "adaptive", workers=WORKERS,
            estimate_error=UNDERESTIMATE,
        )
        result = generator.run_cell(flip_case, cell)
        assert oracle.compare_tables(
            result, flip_case.oracle_rows(), label=cell.label()) is None

    def test_shrinker_resets_the_axis_by_default(self):
        from repro.testkit.shrink import _AXIS_DEFAULTS

        assert ("estimate_error", None) in _AXIS_DEFAULTS


# ----------------------------------------------------------------------
# Service plane: adaptive execution, metrics, feedback
# ----------------------------------------------------------------------
class TestServiceIntegration:
    def test_adaptive_runs_and_counts(self, flip_case):
        from repro.service import QueryService, ServiceConfig

        warehouse = _warehouse(flip_case)
        service = QueryService(
            warehouse, ServiceConfig(enable_adaptive=True)
        )
        outcome = service.execute(flip_case.query, algorithm="auto")
        assert outcome.status == "ok"
        assert outcome.algorithm.startswith("adaptive[")
        assert service.metrics.counter("adaptive.runs").value == 1
        assert oracle.compare_tables(
            outcome.result, flip_case.oracle_rows()) is None

    def test_observed_stats_feed_the_refinement_loop(self, flip_case):
        from repro.service import QueryService, ServiceConfig

        warehouse = _warehouse(flip_case)
        service = QueryService(
            warehouse, ServiceConfig(enable_adaptive=True)
        )
        service.execute(flip_case.query, algorithm="auto")
        assert service.metrics.counter(
            "feedback.observations").value >= 1

    def test_explicit_algorithm_bypasses_adaptive(self, flip_case):
        from repro.service import QueryService, ServiceConfig

        warehouse = _warehouse(flip_case)
        service = QueryService(
            warehouse, ServiceConfig(enable_adaptive=True)
        )
        outcome = service.execute(
            flip_case.query, algorithm="repartition"
        )
        assert outcome.status == "ok"
        assert outcome.algorithm == "repartition"
        assert service.metrics.counter("adaptive.runs").value == 0
