"""The skew plane: detection kernel, hybrid shuffle, work stealing.

Property tests for the count-min sketch + top-k detection kernel
(no false negatives above the threshold, bounded overestimation,
determinism), unit tests for the bounded-fan-out hybrid split and the
straggler steal planner, and the differential battery: every
shuffle-using algorithm on heavily skewed data, skew handling on and
off, with and without injected faults, must reproduce the oracle's row
multiset under an invariant checker while the measured worker balance
improves.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import algorithm_by_name
from repro.core.advisor import JoinAdvisor, WorkloadEstimate
from repro.core.joins import ExecutionContext
from repro.core.joins.costing import HYBRID_SHUFFLE_SKEW_CAP, JoinCosting
from repro.core.joins.repartition import _route_db_rows
from repro.config import HybridConfig
from repro.edw.partitioner import agreed_hash_partition
from repro.errors import InvariantViolation, ServiceError, SimulationError
from repro.faults import FaultInjector, FaultPlan
from repro.jen.scheduler import plan_work_stealing
from repro.jen.worker import JenWorker
from repro.kernels.sketch import CountMinSketch, TopKHeap
from repro.relational.schema import Column, DataType, Schema
from repro.relational.table import Table
from repro.skew import HeavyHitterDetector, HotKeySet
from repro.testkit import generator, oracle
from repro.testkit.invariants import InvariantChecker
from repro.workload.generator import zipf_skew_factor
from tests.test_chaos import FAULT_SPECS

SHUFFLE_ALGORITHMS = generator.SHUFFLE_ALGORITHMS
SKEW_ON = ExecutionContext(skew_handling=True)
#: Tier-1 fault representatives; the full grid is slow-marked.
SMOKE_FAULTS = ("crash-shuffle", "crash-scan", "combo")


def zipf_keys(rng, n, n_keys=200, skew=1.6):
    ranks = np.arange(1, n_keys + 1, dtype=np.float64)
    weights = ranks ** -skew
    return rng.choice(n_keys, size=n, p=weights / weights.sum()) \
        .astype(np.int64)


# ----------------------------------------------------------------------
# Count-min sketch + top-k kernel
# ----------------------------------------------------------------------
class TestCountMinSketch:
    def test_never_underestimates(self):
        rng = np.random.default_rng(5)
        keys = zipf_keys(rng, 20_000)
        sketch = CountMinSketch(width=512, depth=4, seed=11)
        for block in np.array_split(keys, 13):
            unique, counts = np.unique(block, return_counts=True)
            sketch.add(unique, counts)
        exact_keys, exact_counts = np.unique(keys, return_counts=True)
        estimates = sketch.estimate(exact_keys)
        assert (estimates >= exact_counts).all()
        assert sketch.total == keys.size

    def test_overestimation_bounded(self):
        # Standard CMS bound: overestimate <= e*N/width with high
        # probability per row; depth=4 takes the min over rows.  The
        # data and seed are fixed, so the generous 3*N/width bound is
        # deterministic here.
        rng = np.random.default_rng(6)
        keys = zipf_keys(rng, 30_000)
        sketch = CountMinSketch(width=1024, depth=4, seed=11)
        sketch.add(keys)
        exact_keys, exact_counts = np.unique(keys, return_counts=True)
        over = sketch.estimate(exact_keys) - exact_counts
        assert (over >= 0).all()
        assert over.max() <= 3.0 * keys.size / 1024

    def test_deterministic(self):
        keys = zipf_keys(np.random.default_rng(7), 5_000)
        a = CountMinSketch(width=256, depth=3, seed=11)
        b = CountMinSketch(width=256, depth=3, seed=11)
        a.add(keys)
        # Same multiset in a different batch order: identical state.
        for block in np.array_split(keys[::-1], 7):
            b.add(block)
        probe = np.unique(keys)
        assert np.array_equal(a.estimate(probe), b.estimate(probe))

    def test_exact_on_sparse_streams(self):
        # Far fewer distinct keys than cells: the min over 4 rows is
        # collision-free, so estimates agree with exact counts.
        rng = np.random.default_rng(8)
        keys = rng.integers(0, 40, size=10_000).astype(np.int64)
        sketch = CountMinSketch(width=4096, depth=4, seed=11)
        sketch.add(keys)
        exact_keys, exact_counts = np.unique(keys, return_counts=True)
        assert np.array_equal(sketch.estimate(exact_keys), exact_counts)

    def test_rejects_bad_geometry(self):
        with pytest.raises(SimulationError):
            CountMinSketch(width=0, depth=4)
        with pytest.raises(SimulationError):
            CountMinSketch(width=64, depth=0)


class TestTopKHeap:
    def test_caps_and_sorts(self):
        heap = TopKHeap(3)
        heap.offer(np.array([10, 20, 30, 40], dtype=np.int64),
                   np.array([5, 40, 15, 25], dtype=np.int64))
        heap.prune(0)
        kept = heap.keys()
        assert kept.tolist() == sorted(kept.tolist())
        assert len(kept) == 3
        assert 10 not in kept  # smallest estimate evicted

    def test_keeps_max_estimate_per_key(self):
        heap = TopKHeap(8)
        heap.offer(np.array([7], dtype=np.int64),
                   np.array([10], dtype=np.int64))
        heap.offer(np.array([7], dtype=np.int64),
                   np.array([4], dtype=np.int64))
        assert dict(heap.items())[7] == 10

    def test_prune_floor(self):
        heap = TopKHeap(8)
        heap.offer(np.array([1, 2, 3], dtype=np.int64),
                   np.array([2, 9, 30], dtype=np.int64))
        heap.prune(10)
        assert heap.keys().tolist() == [3]


# ----------------------------------------------------------------------
# Heavy-hitter detector
# ----------------------------------------------------------------------
class TestHeavyHitterDetector:
    def _observe_blocks(self, detector, keys, blocks=11):
        for block in np.array_split(keys, blocks):
            detector.observe(block)

    def test_no_false_negatives_above_threshold(self):
        rng = np.random.default_rng(9)
        keys = zipf_keys(rng, 25_000, skew=1.8)
        detector = HeavyHitterDetector(num_workers=8)
        self._observe_blocks(detector, keys)
        exact_keys, exact_counts = np.unique(keys, return_counts=True)
        threshold = detector.threshold()
        truly_hot = exact_keys[exact_counts >= threshold]
        assert truly_hot.size > 0  # the workload really is skewed
        assert np.isin(truly_hot, detector.hot_keys()).all()

    def test_agrees_with_exact_counts_when_sparse(self):
        # Few distinct keys + default 1024x4 sketch: detection is the
        # exact frequency cut, no over- or under-selection.
        rng = np.random.default_rng(10)
        keys = zipf_keys(rng, 12_000, n_keys=64, skew=1.5)
        detector = HeavyHitterDetector(num_workers=6)
        self._observe_blocks(detector, keys)
        exact_keys, exact_counts = np.unique(keys, return_counts=True)
        expected = exact_keys[exact_counts >= detector.threshold()]
        assert np.array_equal(detector.hot_keys(), np.sort(expected))

    def test_deterministic(self):
        keys = zipf_keys(np.random.default_rng(11), 9_000)
        first = HeavyHitterDetector(num_workers=4)
        second = HeavyHitterDetector(num_workers=4)
        self._observe_blocks(first, keys, blocks=5)
        self._observe_blocks(second, keys, blocks=5)
        assert np.array_equal(first.hot_keys(), second.hot_keys())

    def test_uniform_stream_detects_nothing(self):
        rng = np.random.default_rng(12)
        keys = rng.integers(0, 500, size=20_000).astype(np.int64)
        detector = HeavyHitterDetector(num_workers=8)
        self._observe_blocks(detector, keys)
        assert detector.hot_keys().size == 0
        assert detector.hot_key_set() is None

    def test_hot_key_set_fanouts_bounded(self):
        rng = np.random.default_rng(13)
        keys = zipf_keys(rng, 25_000, skew=1.8)
        detector = HeavyHitterDetector(num_workers=8)
        self._observe_blocks(detector, keys)
        hot = detector.hot_key_set()
        assert hot is not None and len(hot) > 0
        assert (hot.fanouts >= 2).all()
        assert (hot.fanouts <= 8).all()
        # The hottest key needs the widest spread.
        estimates = detector.sketch.estimate(hot.keys)
        assert hot.fanouts[np.argmax(estimates)] == hot.fanouts.max()


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
        config = dataclasses.replace(HybridConfig(), shuffle_skew=5.0)
        # Selective on T, not on L: the HDFS shuffle/build path is the
        # critical path, so the skew multiplier shows in the estimate.
        est = WorkloadEstimate(
            t_rows=2e8, l_rows=15e9, sigma_t=0.1, sigma_l=0.8,
            s_t=0.2, s_l=0.1,
        )
        skewed = JoinAdvisor(config).estimate_all(est)
        handled = JoinAdvisor(config, skew_handling=True).estimate_all(est)
        for name in ("repartition", "repartition(BF)", "zigzag"):
            assert handled[name] < skewed[name]
        # Algorithms without an L' shuffle are untouched.
        assert handled["broadcast"] == pytest.approx(skewed["broadcast"])
        assert handled["db"] == pytest.approx(skewed["db"])


# ----------------------------------------------------------------------
# Context + generator plumbing
# ----------------------------------------------------------------------
class TestSkewPlumbing:
    def test_context_defaults_to_skew_off(self):
        context = ExecutionContext()
        assert context.skew_handling is False
        with pytest.raises(dataclasses.FrozenInstanceError):
            context.skew_handling = True

    def test_run_cell_leaves_no_skew_state(self):
        """The cell's skew handling rides on its own run: a default run
        on the same warehouse afterwards detects nothing."""
        case = generator.skewed_case(1.8)
        cell = generator.ConfigCell("repartition", workers=4,
                                    skew_handling=True)
        assert "skew" in cell.label()
        warehouse = generator.build_cell_warehouse(case, 4, "parquet")
        generator.run_cell(case, cell, warehouse=warehouse)
        plain = algorithm_by_name("repartition").run(warehouse, case.query)
        assert plain.stats.hot_keys_detected == 0

    def test_warm_cache_cell_refuses_skew_handling(self):
        """A warm cell runs through the query service, which has no
        skew handling: the cell is refused, not silently run without."""
        with pytest.raises(ServiceError, match="skew handling"):
            generator.ConfigCell("repartition", cache_warm=True,
                                 skew_handling=True)
        grid = generator.default_grid()
        assert not any(cell.cache_warm and cell.skew_handling
                       for _case, cell in grid)

    def test_default_grid_sweeps_the_skew_axis(self):
        grid = generator.default_grid()
        skew_cells = [
            (case, cell) for case, cell in grid if cell.skew_handling
        ]
        assert {cell.algorithm for _, cell in skew_cells} == \
            set(SHUFFLE_ALGORITHMS)
        assert {case.name for case, _ in skew_cells} == {"skew1.8"}
        faulted = {cell.fault_spec for _, cell in skew_cells
                   if cell.fault_spec}
        assert faulted == set(generator.FAULT_AXIS)

    def test_shrinker_resets_skew_axis(self):
        from repro.testkit.shrink import _AXIS_DEFAULTS

        assert ("skew_handling", False) in _AXIS_DEFAULTS

    def test_policy_fraction_default(self):
        # Half a worker's fair share, counting at least two workers.
        assert HeavyHitterDetector(8).fraction == pytest.approx(1 / 16)
        assert HeavyHitterDetector(1).fraction == pytest.approx(1 / 4)


# ----------------------------------------------------------------------
# Differential battery on skewed workloads
# ----------------------------------------------------------------------
#: (algorithm, Zipf key skew) -> pinned (p99/p50 per-worker join-load
#: spread, simulated seconds) at 30 workers, hash-only then hybrid.
BALANCE_PINS = {
    ("repartition", 0.0): ((3.800, 27.390), (1.920, 27.396)),
    ("repartition", 1.2): ((67.907, 33.912), (2.156, 28.398)),
    ("repartition", 1.8): ((519.820, 59.528), (1.384, 26.679)),
    ("zigzag", 0.0): ((144.940, 22.854), (2.584, 22.869)),
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
    @pytest.mark.parametrize("skew_handling", [False, True])
    @pytest.mark.parametrize("algorithm", SHUFFLE_ALGORITHMS)
    def test_oracle_equal_under_invariants(self, hot_case, hot_reference,
                                           algorithm, skew_handling):
        cell = generator.ConfigCell(algorithm, workers=4,
                                    skew_handling=skew_handling)
        result = generator.run_cell(hot_case, cell)
        assert oracle.canonical_rows(result) == hot_reference

    @pytest.mark.parametrize("algorithm, key_skew", list(BALANCE_PINS))
    def test_hybrid_improves_worker_balance(self, algorithm, key_skew):
        case = generator.skewed_case(key_skew)
        reference = case.oracle_rows()
        warehouse = generator.build_cell_warehouse(case, 30, "parquet")
        # Hash-only pays the analytic skew of the generated Zipf keys;
        # the hybrid run pays the balance it measures.
        warehouse.config = dataclasses.replace(
            warehouse.config,
            shuffle_skew=zipf_skew_factor(key_skew, 64, 30),
        )
        observed = []
        for skew_handling in (False, True):
            result = algorithm_by_name(algorithm).run(
                warehouse, case.query,
                ExecutionContext(skew_handling=skew_handling),
            )
            oracle.assert_equivalent(result.result, reference)
            loads = np.asarray(
                result.join_slot_loads, dtype=float
            )
            observed.append((
                np.percentile(loads, 99) / max(np.percentile(loads, 50), 1),
                result.timing.total_seconds,
            ))
            if skew_handling and key_skew > 0:
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
        # the sketch feeds on the same per-block stream, no second scan.
        warehouse = generator.build_cell_warehouse(hot_case, 4, "parquet")
        baseline = algorithm_by_name("repartition").run(
            warehouse, hot_case.query
        )
        detected = algorithm_by_name("repartition").run(
            warehouse, hot_case.query, SKEW_ON
        )
        assert detected.stats.hdfs_rows_scanned == \
            baseline.stats.hdfs_rows_scanned
        assert detected.stats.hot_keys_detected > 0


# ----------------------------------------------------------------------
# Fault interaction: the skew plane under the chaos battery
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def skew_chaos_warehouse(hot_case):
    return generator.build_cell_warehouse(hot_case, 30, "parquet")


@pytest.fixture(scope="module")
def skew_baselines(skew_chaos_warehouse, hot_case):
    """Fault-free skew-handling runs, for exactly-once accounting."""
    return {
        name: algorithm_by_name(name).run(
            skew_chaos_warehouse, hot_case.query, SKEW_ON)
        for name in SHUFFLE_ALGORITHMS
    }


def run_skewed_with_faults(warehouse, query, algorithm, spec,
                           context=SKEW_ON):
    return algorithm_by_name(algorithm).run(
        warehouse, query, dataclasses.replace(
            context, faults=FaultInjector(FaultPlan.from_spec(spec))))


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
            f"crash:w{workers - 1}@{phase}",
            dataclasses.replace(SKEW_ON, observers=(checker,)))
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
            for skew_handling in (False, True):
                cell = generator.ConfigCell(
                    algorithm, workers=30, skew_handling=skew_handling,
                )
                result = generator.run_cell(case, cell)
                assert oracle.canonical_rows(result) == reference
