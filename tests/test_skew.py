"""The skew plane: exact detection, hybrid shuffle, work stealing.

Unit tests for the exact hot-key count and its priced hot line (no
false negatives above one fair share, agreement with a ``np.unique``
reference, determinism, the finer pieces a small key space needs), the
bounded-fan-out hybrid split and the straggler steal planner, and the
differential battery: every shuffle-using algorithm on heavily skewed
data, priced at the case's skew (the split runs) and at skew 1 (it
does not), with and without injected faults, must reproduce the
oracle's row multiset under an invariant checker while the measured
worker balance improves.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
import pytest

from repro import algorithm_by_name
from repro.core.advisor import JoinAdvisor, WorkloadEstimate
from repro.core.joins import ExecutionContext
from repro.core.joins.costing import HYBRID_SHUFFLE_SKEW_CAP, JoinCosting
from repro.core.joins.repartition import _route_db_rows
from repro.config import HybridConfig
from repro.edw.partitioner import agreed_hash_partition
from repro.errors import InvariantViolation
from repro.faults import FaultInjector, FaultPlan
from repro.jen.scheduler import plan_work_stealing
from repro.jen.worker import JenWorker
from repro.relational.schema import Column, DataType, Schema
from repro.relational.table import Table
from repro.skew import HotKeySet, hot_key_set
from repro.testkit import generator, oracle
from repro.testkit.invariants import InvariantChecker
from tests.test_chaos import FAULT_SPECS

SHUFFLE_ALGORITHMS = generator.SHUFFLE_ALGORITHMS
#: Tier-1 fault representatives; the full grid is slow-marked.
SMOKE_FAULTS = ("crash-shuffle", "crash-scan", "combo")
#: A priced skew no split misses: the first piece, one fair share,
#: always gains.
ANY_SPLIT = 1e9


def zipf_keys(rng, n, n_keys=200, skew=1.6):
    ranks = np.arange(1, n_keys + 1, dtype=np.float64)
    weights = ranks ** -skew
    return rng.choice(n_keys, size=n, p=weights / weights.sum()) \
        .astype(np.int64)


def hash_only():
    """Every shuffle routes by the agreed hash and pays the priced skew:
    the split finds nothing to split."""
    return mock.patch("repro.core.joins.repartition.hot_key_set",
                      return_value=None)


def priced_at_one(warehouse):
    """``warehouse`` with its shuffle priced at skew 1 (no count)."""
    warehouse.config = dataclasses.replace(warehouse.config,
                                           shuffle_skew=1.0)
    return warehouse


# ----------------------------------------------------------------------
# Exact heavy-hitter detection
# ----------------------------------------------------------------------
def reference_split(keys, num_workers):
    """The first piece's split from ``np.unique`` counts: keys above one
    fair share, fanned out over the fair shares they fill."""
    unique, counts = np.unique(keys, return_counts=True)
    fair = keys.size / num_workers
    fanouts = np.minimum(num_workers, np.ceil(counts / fair)).astype(int)
    hot = counts > fair
    return unique[hot], fanouts[hot]


class TestHeavyHitterDetector:
    def test_no_false_negatives_above_threshold(self):
        rng = np.random.default_rng(9)
        keys = zipf_keys(rng, 25_000, skew=1.8)
        unique, counts = np.unique(keys, return_counts=True)
        truly_hot = unique[counts > keys.size / 8]
        assert truly_hot.size > 0  # the workload really is skewed
        for priced_skew in (1.5, 4.0, ANY_SPLIT):
            hot = hot_key_set(keys, 8, priced_skew)
            assert np.isin(truly_hot, hot.keys).all()

    def test_agrees_with_exact_counts_when_sparse(self):
        rng = np.random.default_rng(10)
        keys = zipf_keys(rng, 12_000, n_keys=64, skew=1.5)
        hot = hot_key_set(keys, 6, ANY_SPLIT)
        expected_keys, expected_fanouts = reference_split(keys, 6)
        assert np.array_equal(hot.keys, expected_keys)
        assert np.array_equal(hot.fanouts, expected_fanouts)

    def test_deterministic(self):
        keys = zipf_keys(np.random.default_rng(11), 9_000)
        first = hot_key_set(keys, 4, 2.0)
        # The same multiset in another order: the same split.
        second = hot_key_set(keys[::-1].copy(), 4, 2.0)
        assert np.array_equal(first.keys, second.keys)
        assert np.array_equal(first.fanouts, second.fanouts)

    def test_uniform_stream_detects_nothing(self):
        rng = np.random.default_rng(12)
        keys = rng.integers(0, 500, size=20_000).astype(np.int64)
        assert hot_key_set(keys, 8, 2.0) is None
        assert hot_key_set(keys, 8, ANY_SPLIT) is None

    def test_hot_key_set_fanouts_bounded(self):
        rng = np.random.default_rng(13)
        keys = zipf_keys(rng, 25_000, skew=1.8)
        hot = hot_key_set(keys, 8, ANY_SPLIT)
        assert hot is not None and len(hot) > 0
        assert (hot.fanouts >= 2).all()
        assert (hot.fanouts <= 8).all()
        # The hottest key needs the widest spread.
        unique, counts = np.unique(keys, return_counts=True)
        hottest = unique[np.argmax(counts)]
        assert hot.fanouts[hot.keys == hottest][0] == hot.fanouts.max()

    def test_few_keys_split_finer_to_beat_the_priced_skew(self):
        """Six keys over thirty workers: one fair share per piece leaves
        a receiver at 2.6 times the mean, so the pieces halve until
        the split beats the priced 1.7."""
        counts = [2901, 3340, 4211, 5419, 7808, 14392]
        keys = np.repeat(np.arange(6, dtype=np.int64) * 7919, counts)
        coarse = reference_split(keys, 30)
        hot = hot_key_set(keys, 30, 1.7)
        assert np.array_equal(hot.keys, coarse[0])
        assert (hot.fanouts >= coarse[1]).all()
        assert (hot.fanouts > coarse[1]).any()
        # Each key's rows dealt over its destinations, the way the
        # shuffle deals them: the receivers beat the priced skew.
        loads = np.zeros(30)
        for key, dests in zip(hot.keys, hot.destination_lists(
                30, agreed_hash_partition)):
            rows = int((keys == key).sum())
            np.add.at(loads, dests[np.arange(rows) % dests.size], 1)
        assert loads.max() * 30 < 1.7 * keys.size

    def test_a_split_that_cannot_gain_is_not_made(self):
        # Three rows of one key over two workers: at best two land on
        # one receiver, 1.33 times the mean.
        keys = np.array([5, 5, 5], dtype=np.int64)
        assert hot_key_set(keys, 2, 1.2) is None
        assert len(hot_key_set(keys, 2, 1.5)) == 1
        assert hot_key_set(keys, 1, ANY_SPLIT) is None


# ----------------------------------------------------------------------
# Hybrid split + probe routing (data plane)
# ----------------------------------------------------------------------
def _key_table(keys):
    keys = np.asarray(keys, dtype=np.int64)
    schema = Schema([Column("k", DataType.INT64),
                     Column("v", DataType.INT32)])
    return Table(schema, {
        "k": keys,
        "v": np.arange(keys.size, dtype=np.int32),
    })


class TestHybridRouting:
    def test_build_side_spread_is_contained_and_conserved(self):
        rng = np.random.default_rng(14)
        keys = np.concatenate([
            np.full(300, 42, dtype=np.int64),
            rng.integers(0, 1000, size=200).astype(np.int64),
        ])
        table = _key_table(keys)
        hot = HotKeySet(keys=np.array([42], dtype=np.int64),
                        fanouts=np.array([3], dtype=np.int64))
        # The third sender (its deal starts at offset 2) holds the rows.
        senders = [table.slice(0, 0), table.slice(0, 0), table]
        checker = InvariantChecker()  # containment etc.
        parts, routed, kept, hot_rows = JenWorker.partition_for_exchange(
            senders, "k", 6, hot, (checker,)
        )
        assert checker.counts["hybrid_partition"] == 1
        assert hot_rows == 300
        assert routed[:2].sum() == 0 and routed[2].sum() == table.num_rows
        assert np.array_equal(kept, routed)  # hybrid routing cuts nothing
        home = int(agreed_hash_partition(
            np.array([42], dtype=np.int64), 6)[0])
        spread_set = {home, (home + 1) % 6, (home + 2) % 6}
        for index, part in enumerate(parts):
            count = int((part.column("k") == 42).sum())
            if index in spread_set:
                assert count == 100  # 300 rows dealt evenly over 3
            else:
                assert count == 0

    def test_probe_side_duplicates_to_spread_set_only(self):
        rng = np.random.default_rng(15)
        keys = np.concatenate([
            np.full(40, 42, dtype=np.int64),
            rng.integers(0, 1000, size=100).astype(np.int64),
        ])
        parts_in = [_key_table(keys[:70]), _key_table(keys[70:])]
        hot = HotKeySet(keys=np.array([42], dtype=np.int64),
                        fanouts=np.array([3], dtype=np.int64))
        checker = InvariantChecker()
        dests, hot_tuples, copy_tuples = _route_db_rows(
            parts_in, "k", 6, hot_keys=hot, observers=(checker,)
        )
        assert checker.counts["broadcast_routing"] == 1
        assert hot_tuples == 40
        assert copy_tuples == 120  # fan-out 3 copies of each hot row
        total_delivered = sum(t.num_rows for t in dests)
        assert total_delivered == keys.size + 2 * 40

    def test_invariant_catches_lost_hot_copy(self):
        keys = np.full(10, 7, dtype=np.int64)
        table = _key_table(keys)
        hot_keys = np.array([7], dtype=np.int64)
        fanouts = np.array([2], dtype=np.int64)
        home = int(agreed_hash_partition(hot_keys, 4)[0])
        # Deliver the hot rows to the home worker only: the spread
        # partner's copy is missing.
        empty = table.slice(0, 0)
        dests = [empty, empty, empty, empty]
        dests[home] = table
        with pytest.raises(InvariantViolation):
            InvariantChecker().check_broadcast_routing(
                [table], "k", dests, 4, agreed_hash_partition,
                hot_keys, fanouts=fanouts,
            )

    def test_off_path_identical_without_hot_keys(self):
        rng = np.random.default_rng(16)
        keys = rng.integers(0, 100, size=500).astype(np.int64)
        parts_in = [_key_table(keys)]
        dests, hot_tuples, copy_tuples = _route_db_rows(
            parts_in, "k", 4, hot_keys=None
        )
        assert (hot_tuples, copy_tuples) == (0, 0)
        assert sum(t.num_rows for t in dests) == keys.size


# ----------------------------------------------------------------------
# Work-stealing planner
# ----------------------------------------------------------------------
class TestWorkStealing:
    def test_balanced_loads_are_left_alone(self):
        plan = plan_work_stealing([100, 105, 95, 102])
        assert not plan.has_moves()
        assert plan.pre_balance == plan.post_balance

    def test_straggler_surplus_moves(self):
        plan = plan_work_stealing([1000, 100, 100, 100], threshold=1.25)
        assert plan.has_moves()
        assert plan.fragments[0] > 1
        assert plan.post_balance < plan.pre_balance
        # Non-stragglers never donate their own work.
        for slot in (1, 2, 3):
            assert plan.fragments[slot] == 1
            assert plan.assignments[(slot, 0)] == slot

    def test_below_threshold_is_identity(self):
        plan = plan_work_stealing([120, 100, 100, 100], threshold=1.25)
        assert not plan.has_moves()

    def test_deterministic(self):
        loads = [900, 50, 200, 50, 700, 50]
        first = plan_work_stealing(loads)
        second = plan_work_stealing(loads)
        assert first.assignments == second.assignments

    def test_degenerate_inputs(self):
        assert not plan_work_stealing([500]).has_moves()
        assert not plan_work_stealing([]).has_moves()
        assert not plan_work_stealing([0, 0, 0]).has_moves()


# ----------------------------------------------------------------------
# Costing + advisor: the hybrid shuffle caps the skew multiplier
# ----------------------------------------------------------------------
class TestSkewCosting:
    def setup_method(self):
        self.costing = JoinCosting(HybridConfig().scaled(1.0))

    def test_hash_only_pays_configured_skew(self):
        assert self.costing.effective_shuffle_skew(4.0) == 4.0

    def test_hybrid_caps_at_constant_without_measurement(self):
        assert self.costing.effective_shuffle_skew(4.0, hybrid=True) \
            == HYBRID_SHUFFLE_SKEW_CAP

    def test_hybrid_caps_at_measured_balance(self):
        assert self.costing.effective_shuffle_skew(
            4.0, hybrid=True, measured=1.2) == pytest.approx(1.2)
        # A run whose detection missed pays what it measured...
        assert self.costing.effective_shuffle_skew(
            4.0, hybrid=True, measured=3.1) == pytest.approx(3.1)
        # ...but never more than the configured analytic factor.
        assert self.costing.effective_shuffle_skew(
            2.0, hybrid=True, measured=3.1) == pytest.approx(2.0)

    def test_transfer_phases_scale_with_volume(self):
        assert self.costing.jen_relay_seconds(1e6, 32.0) > 0
        assert self.costing.jen_relay_seconds(2e6, 32.0) == \
            pytest.approx(2 * self.costing.jen_relay_seconds(1e6, 32.0))

    def test_advisor_discounts_repartition_when_skew_handled(self):
        # Selective on T, not on L: the HDFS shuffle/build path is the
        # critical path, so the skew multiplier shows in the estimate.
        est = WorkloadEstimate(
            t_rows=2e8, l_rows=15e9, sigma_t=0.1, sigma_l=0.8,
            s_t=0.2, s_l=0.1,
        )

        def estimates(shuffle_skew):
            return JoinAdvisor(dataclasses.replace(
                HybridConfig(), shuffle_skew=shuffle_skew)).estimate_all(est)

        uniform, capped = estimates(1.0), estimates(HYBRID_SHUFFLE_SKEW_CAP)
        skewed = estimates(5.0)
        # A skewed shuffle splits its hot keys: the advisor prices the
        # cap, not the configured factor.
        assert skewed == capped
        for name in ("repartition", "repartition(BF)", "zigzag"):
            assert uniform[name] < skewed[name]
        # Algorithms without an L' shuffle are untouched.
        assert skewed["broadcast"] == pytest.approx(uniform["broadcast"])
        assert skewed["db"] == pytest.approx(uniform["db"])


# ----------------------------------------------------------------------
# Testkit plumbing: a cell's warehouse prices its case's skew
# ----------------------------------------------------------------------
class TestSkewPlumbing:
    def test_run_cell_leaves_no_skew_state(self):
        """The split rides on its own run: the same warehouse, priced at
        skew 1 afterwards, detects nothing."""
        case = generator.skewed_case(1.8)
        warehouse = generator.build_cell_warehouse(case, 4, "parquet")
        assert warehouse.config.shuffle_skew > 1.0
        checker = InvariantChecker()
        generator.run_cell(case, generator.ConfigCell("repartition"),
                           warehouse=warehouse, checker=checker)
        assert checker.counts["hybrid_partition"] == 1
        plain = algorithm_by_name("repartition").run(
            priced_at_one(warehouse), case.query)
        assert plain.stats.hot_keys_detected == 0

    def test_warm_cache_cell_splits_skewed_keys(self):
        """A warm cell runs through the query service, whose runs split
        a skewed case's hot keys too."""
        case = generator.skewed_case(1.8)
        checker = InvariantChecker()
        result = generator.run_cell(
            case, generator.ConfigCell("repartition", cache_warm=True),
            checker=checker)
        assert checker.counts["hybrid_partition"] == 2
        assert oracle.canonical_rows(result) == case.oracle_rows()

    def test_default_grid_sweeps_the_skew_axis(self):
        grid = generator.default_grid()
        skew_cells = [
            (case, cell) for case, cell in grid if case.name == "skew1.8"
        ]
        assert {cell.algorithm for _, cell in skew_cells} == \
            set(SHUFFLE_ALGORITHMS)
        faulted = {cell.fault_spec for _, cell in skew_cells
                   if cell.fault_spec}
        assert faulted == set(generator.FAULT_AXIS)
        for case, cell in skew_cells:
            warehouse = generator.build_cell_warehouse(
                case, cell.workers, cell.format_name)
            assert warehouse.config.shuffle_skew > 1.0

    def test_policy_fraction_default(self):
        # The first piece is one worker's fair share: a key holding
        # exactly that many rows stays hashed, one row more splits.
        keys = np.concatenate([np.full(25, 1), np.arange(2, 77)])
        assert hot_key_set(keys, 4, ANY_SPLIT) is None
        hot = hot_key_set(np.concatenate([keys, [1]]), 4, ANY_SPLIT)
        assert hot.keys.tolist() == [1] and hot.fanouts.tolist() == [2]


# ----------------------------------------------------------------------
# Differential battery on skewed workloads
# ----------------------------------------------------------------------
#: (algorithm, Zipf key skew) -> pinned (p99/p50 per-worker join-load
#: spread, simulated seconds) at 30 workers priced at the case's skew:
#: the hash-only reference, then the run.  At key skew 0 the shuffle is
#: priced at 1, so the run is the hash-only run.
BALANCE_PINS = {
    ("repartition", 0.0): ((3.800, 27.390), (3.800, 27.390)),
    ("repartition", 1.2): ((67.907, 33.912), (2.156, 28.398)),
    ("repartition", 1.8): ((519.820, 59.528), (1.384, 26.679)),
    ("zigzag", 0.0): ((144.940, 22.854), (144.940, 22.854)),
    ("zigzag", 1.2): ((711.570, 32.523), (2.317, 31.984)),
    ("zigzag", 1.8): ((1039.350, 59.302), (1.385, 34.016)),
}


@pytest.fixture(scope="module")
def hot_case():
    return generator.skewed_case(1.8)


@pytest.fixture(scope="module")
def hot_reference(hot_case):
    return hot_case.oracle_rows()


class TestSkewDifferential:
    @pytest.mark.parametrize("priced", [False, True])
    @pytest.mark.parametrize("algorithm", SHUFFLE_ALGORITHMS)
    def test_oracle_equal_under_invariants(self, hot_case, hot_reference,
                                           algorithm, priced):
        """The hot case priced at its skew splits; priced at 1 it
        hashes every row.  Both answer as the oracle does."""
        warehouse = generator.build_cell_warehouse(hot_case, 4, "parquet")
        if not priced:
            priced_at_one(warehouse)
        checker = InvariantChecker()
        result = generator.run_cell(
            hot_case, generator.ConfigCell(algorithm, workers=4),
            warehouse=warehouse, checker=checker)
        assert oracle.canonical_rows(result) == hot_reference
        assert checker.counts["hybrid_partition"] == int(priced)
        assert checker.counts["broadcast_routing"] == int(priced)

    @pytest.mark.parametrize("algorithm, key_skew", list(BALANCE_PINS))
    def test_hybrid_improves_worker_balance(self, algorithm, key_skew):
        case = generator.skewed_case(key_skew)
        reference = case.oracle_rows()
        # Both runs pay the analytic skew of the generated Zipf keys
        # when they hash; the split pays the balance it measures.
        warehouse = generator.build_cell_warehouse(case, 30, "parquet")
        observed = []
        for split in (False, True):
            if split:
                result = algorithm_by_name(algorithm).run(
                    warehouse, case.query)
            else:
                with hash_only():
                    result = algorithm_by_name(algorithm).run(
                        warehouse, case.query)
            oracle.assert_equivalent(result.result, reference)
            loads = np.asarray(
                result.join_slot_loads, dtype=float
            )
            observed.append((
                np.percentile(loads, 99) / max(np.percentile(loads, 50), 1),
                result.timing.total_seconds,
            ))
            if split and key_skew > 0:
                assert result.stats.hot_keys_detected > 0
                assert result.stats.hot_tuples_rerouted > 0
        assert observed == [
            pytest.approx(pinned, abs=5e-4)
            for pinned in BALANCE_PINS[algorithm, key_skew]
        ]
        if key_skew >= 1.8:
            # The acceptance bar: hybrid cuts p99/p50 spread at least 2x.
            assert observed[1][0] <= observed[0][0] / 2.0

    def test_detection_is_single_pass(self, hot_case):
        # The scan stats must not change when detection rides along:
        # the shuffle counts the rows it routes, no second scan.
        warehouse = generator.build_cell_warehouse(hot_case, 4, "parquet")
        detected = algorithm_by_name("repartition").run(
            warehouse, hot_case.query
        )
        baseline = algorithm_by_name("repartition").run(
            priced_at_one(warehouse), hot_case.query
        )
        assert detected.stats.hdfs_rows_scanned == \
            baseline.stats.hdfs_rows_scanned
        assert detected.stats.hot_keys_detected > 0
        assert baseline.stats.hot_keys_detected == 0


# ----------------------------------------------------------------------
# Uniform data: the plane leaves it alone
# ----------------------------------------------------------------------
class TestUniformData:
    """A shuffle priced at skew 1 counts no key, splits none and
    steals nothing: the agreed hash routes every row, as the paper's
    JEN does."""

    @staticmethod
    def assert_hash_only(run, count):
        assert run.stats.hot_keys_detected == 0
        assert run.stats.stolen_tuples == 0
        assert not {"jen_hot_relay", "work_steal"} & set(run.trace.names())
        count.assert_not_called()

    def test_the_benchmark_zigzag_shape(self):
        """``scan_zigzag``'s first op at seed 42 (1 600 keys on thirty
        workers)."""
        from benchmarks.e2e.workloads import Session, workload_by_name

        with mock.patch("repro.core.joins.repartition.hot_key_set",
                        wraps=hot_key_set) as count:
            session = Session(workload_by_name("scan_zigzag"), 42)
            try:
                [query] = session.run_op().queries
            finally:
                session.close()
        assert query.join_result.algorithm == "zigzag"
        self.assert_hash_only(query.join_result, count)

    @pytest.mark.parametrize("algorithm", SHUFFLE_ALGORITHMS)
    def test_skewed_keys_priced_at_one(self, hot_case, hot_reference,
                                       algorithm):
        warehouse = priced_at_one(
            generator.build_cell_warehouse(hot_case, 30, "parquet"))
        with mock.patch("repro.core.joins.repartition.hot_key_set",
                        wraps=hot_key_set) as count:
            run = algorithm_by_name(algorithm).run(warehouse,
                                                   hot_case.query)
        self.assert_hash_only(run, count)
        assert oracle.canonical_rows(run.result) == hot_reference


# ----------------------------------------------------------------------
# Fault interaction: the skew plane under the chaos battery
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def skew_chaos_warehouse(hot_case):
    return generator.build_cell_warehouse(hot_case, 30, "parquet")


@pytest.fixture(scope="module")
def skew_baselines(skew_chaos_warehouse, hot_case):
    """Fault-free split runs, for exactly-once accounting."""
    return {
        name: algorithm_by_name(name).run(
            skew_chaos_warehouse, hot_case.query)
        for name in SHUFFLE_ALGORITHMS
    }


def run_skewed_with_faults(warehouse, query, algorithm, spec,
                           observers=()):
    return algorithm_by_name(algorithm).run(
        warehouse, query, ExecutionContext(
            observers=observers,
            faults=FaultInjector(FaultPlan.from_spec(spec))))


def check_skew_differential(result, baseline, reference_rows):
    assert oracle.canonical_rows(result.result) == reference_rows
    # Exactly-once accounting survives recovery with the hybrid split.
    assert result.stats.hdfs_rows_scanned == \
        baseline.stats.hdfs_rows_scanned
    assert result.total_seconds >= baseline.total_seconds - 1e-9


class TestSkewChaosSmoke:
    @pytest.mark.parametrize("fault", SMOKE_FAULTS)
    @pytest.mark.parametrize("algorithm", ["repartition", "zigzag"])
    def test_differential(self, skew_chaos_warehouse, hot_case,
                          hot_reference, skew_baselines, algorithm,
                          fault):
        result = run_skewed_with_faults(
            skew_chaos_warehouse, hot_case.query, algorithm,
            FAULT_SPECS[fault],
        )
        check_skew_differential(result, skew_baselines[algorithm],
                                hot_reference)

    def test_crash_mid_hybrid_shuffle(self, skew_chaos_warehouse,
                                      hot_case, hot_reference,
                                      skew_baselines):
        """A worker dies while the hybrid shuffle is in flight: the
        survivor re-produces its rows, the hot split re-plans over the
        remaining workers, and the result is still the oracle's."""
        result = run_skewed_with_faults(
            skew_chaos_warehouse, hot_case.query, "repartition",
            FAULT_SPECS["crash-shuffle"],
        )
        assert result.stats.hot_keys_detected > 0
        assert result.stats.hot_tuples_rerouted > 0
        check_skew_differential(result, skew_baselines["repartition"],
                                hot_reference)


#: (Zipf key skew, workers) whose hot keys fan out across the whole
#: cluster, so a crash leaves fan-outs wider than the survivors.
SMALL_CLUSTERS = ((1.8, 2), (2.5, 3))


@pytest.fixture(scope="module")
def small_cluster_cases():
    return {
        (key_skew, workers): (
            case,
            generator.build_cell_warehouse(case, workers, "parquet"),
            case.oracle_rows(),
        )
        for key_skew, workers in SMALL_CLUSTERS
        for case in [generator.skewed_case(key_skew)]
    }


class TestSmallClusterCrashes:
    @pytest.mark.parametrize("algorithm", SHUFFLE_ALGORITHMS)
    @pytest.mark.parametrize("phase", ["scan", "shuffle"])
    @pytest.mark.parametrize("key_skew, workers", SMALL_CLUSTERS)
    def test_fanout_capped_at_the_survivors(
            self, small_cluster_cases, key_skew, workers, phase,
            algorithm):
        """A hot key spread over every worker at scan start loses one
        to the crash: each survivor still gets one copy of its probe
        rows, not two (the routing invariants check it)."""
        case, warehouse, reference = small_cluster_cases[key_skew, workers]
        checker = InvariantChecker()
        result = run_skewed_with_faults(
            warehouse, case.query, algorithm,
            f"crash:w{workers - 1}@{phase}", observers=(checker,))
        assert checker.counts["broadcast_routing"] == 1
        assert result.stats.hot_keys_detected > 0
        assert oracle.canonical_rows(result.result) == reference

    def test_destination_lists_never_repeat_a_worker(self):
        hot = HotKeySet(keys=np.array([3, 8], dtype=np.int64),
                        fanouts=np.array([3, 2], dtype=np.int64))
        for workers in (1, 2, 3, 4):
            for dests in hot.destination_lists(workers,
                                               agreed_hash_partition):
                assert len(set(dests.tolist())) == dests.size
                assert dests.size <= workers


@pytest.mark.slow
class TestSkewChaosFullGrid:
    @pytest.mark.parametrize("fault", sorted(FAULT_SPECS))
    @pytest.mark.parametrize("algorithm", SHUFFLE_ALGORITHMS)
    def test_differential(self, skew_chaos_warehouse, hot_case,
                          hot_reference, skew_baselines, algorithm,
                          fault):
        result = run_skewed_with_faults(
            skew_chaos_warehouse, hot_case.query, algorithm,
            FAULT_SPECS[fault],
        )
        check_skew_differential(result, skew_baselines[algorithm],
                                hot_reference)

    @pytest.mark.parametrize("key_skew", [1.2, 1.8])
    def test_moderate_and_heavy_skew_grids(self, key_skew):
        case = generator.skewed_case(key_skew)
        reference = case.oracle_rows()
        for algorithm in SHUFFLE_ALGORITHMS:
            warehouse = generator.build_cell_warehouse(case, 30, "parquet")
            for priced in (True, False):
                if not priced:
                    priced_at_one(warehouse)
                result = generator.run_cell(
                    case, generator.ConfigCell(algorithm, workers=30),
                    warehouse=warehouse)
                assert oracle.canonical_rows(result) == reference
