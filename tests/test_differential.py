"""Differential tests: the metamorphic config grid vs. the oracle.

Tier-1 runs the seeded 218-cell :func:`repro.testkit.generator.
default_grid` — every algorithm, worker counts {1, 4, 30}, all HDFS
formats, fault plans, cold/warm caches — with the
engine invariant hooks armed, asserting each cell's result equals the
single-node oracle's row multiset.  The ``slow``-marked wide sweep
(``pytest -m slow``) crosses the full matrix over extra seeds and is
the nightly fuzz entry point.

The remaining classes test the testkit itself: diff readability, each
invariant hook catching a seeded corruption, the shrinker reducing an
injected engine bug to a handful of rows, the fuzz driver's artifact
trail, and the join-index cache's verified collision-rebuild path.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import algorithm_by_name
from repro.core.bloom import BloomFilter
from repro.core.joins import ExecutionContext
from repro.edw.partitioner import agreed_hash_partition
from repro.errors import InvariantViolation
from repro.kernels.joinindex import JoinBuildIndex
from repro.kernels.partition import partition_table
from repro.relational.schema import Column, DataType, Schema
from repro.relational.table import table_from_rows
from repro.testkit import checking, fuzz, generator, oracle, shrink
from repro.testkit.generator import (
    ALL_ALGORITHMS,
    ConfigCell,
    WarehouseCache,
    default_grid,
    run_cell,
)

GRID = default_grid()
GRID_IDS = [
    f"{case.name}:{cell.label()}" for case, cell in GRID
]


@pytest.fixture(scope="module")
def warehouse_cache():
    """Shared loaded warehouses across all grid cells (read-only)."""
    return WarehouseCache()


def _int_table(values, name="k"):
    schema = Schema([Column(name, DataType.INT64)])
    return table_from_rows(schema, [(int(v),) for v in values])


# ----------------------------------------------------------------------
# The tier-1 grid
# ----------------------------------------------------------------------
class TestDefaultGrid:
    def test_grid_is_exactly_the_declared_cells(self):
        """The grid restated from the axes, block by block.

        Deliberately a second statement of ``default_grid``: adding or
        removing an axis has to be said here too, so it is visible in
        review.
        """
        def labels(case, algorithms, **axes):
            return {
                f"{case}:{ConfigCell(algorithm, **axes).label()}"
                for algorithm in algorithms
            }

        base, hot, wide = "seed2015", "skew1.8", "wide-dtypes"
        expected = set()
        for workers in generator.WORKER_AXIS:
            expected |= labels(base, ALL_ALGORITHMS, workers=workers)
        for format_name in ("text", "orc"):
            expected |= labels(base, ALL_ALGORITHMS,
                               format_name=format_name)
            expected |= labels(wide, ["repartition"],
                               format_name=format_name,
                               late_materialization=True)
        for fault_spec in generator.FAULT_AXIS:
            expected |= labels(base, ALL_ALGORITHMS, workers=30,
                               fault_spec=fault_spec)
            expected |= labels(hot, generator.SHUFFLE_ALGORITHMS,
                               workers=30, fault_spec=fault_spec,
                               skew_handling=True)
        expected |= labels(base, ALL_ALGORITHMS, cache_warm=True)
        for estimate_error in generator.ESTIMATE_ERROR_AXIS:
            expected |= labels(base, ["adaptive"],
                               estimate_error=estimate_error)
        extra_cases = ["seed2016"] + [
            case.name for case in generator.edge_cases()
        ]
        for case in extra_cases:
            expected |= labels(case, ALL_ALGORITHMS)
        for skew_handling in (True, False):
            expected |= labels(hot, generator.SHUFFLE_ALGORITHMS,
                               skew_handling=skew_handling)
        expected |= labels(wide, ALL_ALGORITHMS, late_materialization=True)
        expected |= labels(hot, ["repartition(BF)", "zigzag"],
                           skew_handling=True, late_materialization=True)
        expected |= labels(wide, ["zigzag"], workers=30,
                           fault_spec=generator.FAULT_AXIS[0],
                           late_materialization=True)
        expected |= labels(wide, ["repartition"], workers=30,
                           fault_spec=generator.FAULT_AXIS[3],
                           late_materialization=True)
        for kind in generator.APPROX_KINDS:
            expected |= labels(f"approx-{kind}", ["approx", "approx(BF)"],
                               approx=1.0)
        assert len(GRID) == 218
        assert sorted(GRID_IDS) == sorted(expected)

    def test_grid_covers_every_metamorphic_axis(self):
        cells = [cell for _, cell in GRID]
        # The exact roster plus the sampled tier at rate 1.0 (full
        # sample == exact, so the oracle contract holds unchanged).
        assert {cell.algorithm for cell in cells} == \
            set(ALL_ALGORITHMS) | {"approx", "approx(BF)"}
        assert {cell.approx for cell in cells} == {None, 1.0}
        assert {cell.workers for cell in cells} >= {1, 4, 30}
        assert {cell.format_name for cell in cells} >= \
            {"parquet", "text", "orc"}
        assert any(cell.fault_spec for cell in cells)
        assert any(cell.cache_warm for cell in cells)
        case_names = {case.name for case, _ in GRID}
        assert {"empty-t-prime", "all-duplicate-keys", "zipf-skew",
                "empty-result", "wide-dtypes"} <= case_names

    @pytest.mark.parametrize(("case", "cell"), GRID, ids=GRID_IDS)
    def test_cell_matches_oracle(self, case, cell, warehouse_cache):
        with checking():
            result = run_cell(
                case, cell, warehouse=warehouse_cache.get(case, cell)
            )
        oracle.assert_equivalent(
            result, case.oracle_rows(), label=f"{case.name}:{cell.label()}"
        )


@pytest.mark.slow
class TestWideSweep:
    """The full algorithms x axes cross over extra seeds (nightly)."""

    @pytest.mark.parametrize("seed", [2016, 2017, 2018])
    def test_wide_grid_matches_oracle(self, seed):
        cache = WarehouseCache()
        failures = []
        with checking():
            for case, cell in generator.wide_grid([seed]):
                result = run_cell(
                    case, cell, warehouse=cache.get(case, cell)
                )
                diff = oracle.compare_tables(
                    result, case.oracle_rows(),
                    label=f"{case.name}:{cell.label()}",
                )
                if diff is not None:
                    failures.append(diff)
        assert not failures, "\n\n".join(failures)


# ----------------------------------------------------------------------
# Oracle comparison helpers
# ----------------------------------------------------------------------
class TestOracleComparison:
    def test_equal_multisets_in_any_order(self):
        assert oracle.compare_tables(
            [(2, "b"), (1, "a"), (1, "a")],
            [(1, "a"), (2, "b"), (1, "a")],
        ) is None

    def test_diff_reports_first_divergence_and_multiplicity(self):
        diff = oracle.compare_tables(
            [(1, "a")],
            [(1, "a"), (2, "b"), (2, "b")],
            label="probe",
        )
        assert "probe: row multisets diverge (1 actual rows vs 3" in diff
        assert "first divergence at sorted row 1" in diff
        assert "missing from actual: 2 row(s)" in diff
        assert "(2, 'b') (x2)" in diff

    def test_diff_reports_extra_rows(self):
        diff = oracle.compare_tables([(9,), (1,)], [(1,)])
        assert "unexpected in actual: 1 row(s)" in diff
        assert "(9,)" in diff

    def test_schema_mismatch_reported_before_rows(self):
        left = _int_table([1], name="a")
        right = _int_table([1], name="b")
        diff = oracle.compare_tables(left, right)
        assert "column mismatch" in diff

    def test_assert_equivalent_raises_with_label(self):
        with pytest.raises(AssertionError, match="mycell"):
            oracle.assert_equivalent([(1,)], [(2,)], label="mycell")


# ----------------------------------------------------------------------
# Invariant hooks
# ----------------------------------------------------------------------
class TestInvariantHooks:
    def test_double_delivery_is_caught(self):
        counts = np.array([[1, 2]], dtype=np.int64)
        with checking(), pytest.raises(InvariantViolation,
                                       match="not exactly-once"):
            from repro.testkit import invariants
            invariants.check_shuffle_delivery([], [], counts)

    def test_partition_row_loss_is_caught(self):
        from repro.testkit import invariants

        table = _int_table(range(40))
        assignments = agreed_hash_partition(table.column("k"), 4)
        parts = partition_table(table, assignments, 4)
        parts[0] = parts[0].take(np.arange(max(parts[0].num_rows - 1, 0)))
        with checking(), pytest.raises(InvariantViolation,
                                       match="completeness"):
            invariants.check_hash_partition(
                table, "k", parts, 4, agreed_hash_partition
            )

    def test_misrouted_partition_row_is_caught(self):
        from repro.testkit import invariants

        table = _int_table(range(40))
        assignments = agreed_hash_partition(table.column("k"), 4)
        parts = partition_table(table, assignments, 4)
        parts[0], parts[1] = parts[1], parts[0]
        with checking(), pytest.raises(InvariantViolation,
                                       match="disjointness"):
            invariants.check_hash_partition(
                table, "k", parts, 4, agreed_hash_partition
            )

    def test_bloom_false_negative_is_caught(self):
        keys = np.arange(50, dtype=np.int64)
        with checking():
            bloom = BloomFilter(num_bits=1024)
            bloom.add(keys)
            bloom._words[:] = 0  # corrupt: silently lose every bit
            with pytest.raises(InvariantViolation,
                               match="false negative"):
                bloom.contains(keys)

    def test_bloom_shadow_survives_merge(self):
        keys = np.arange(30, dtype=np.int64)
        with checking():
            source = BloomFilter(num_bits=1024)
            source.add(keys)
            merged = BloomFilter(num_bits=1024)
            merged.union_in_place(source)
            merged._words[:] = 0
            with pytest.raises(InvariantViolation,
                               match="false negative"):
                merged.contains(keys)

    def test_spill_misalignment_is_caught(self):
        from repro.jen.spill import fragment_hash_partition
        from repro.testkit import invariants

        build = _int_table(range(60))
        probe = _int_table(range(60))
        assignment = fragment_hash_partition(build.column("k"), 3)
        build_parts = partition_table(build, assignment, 3)
        probe_parts = partition_table(probe, assignment, 3)
        fragments = list(zip(build_parts, reversed(probe_parts)))
        with checking(), pytest.raises(InvariantViolation,
                                       match="misalignment"):
            invariants.check_spill_fragments(
                build, probe, "k", "k", fragments, 3,
                fragment_hash_partition,
            )

    def test_hooks_are_inert_outside_checking(self):
        """Production pays one flag test; corrupt inputs never raise."""
        from repro.testkit import invariants

        counts = np.array([[7]], dtype=np.int64)
        invariants.check_shuffle_delivery([], [], counts)
        table = _int_table(range(10))
        invariants.check_hash_partition(
            table, "k", [], 4, agreed_hash_partition
        )

    def test_exactly_once_holds_under_message_duplication(self):
        """The fault injector re-sends and duplicates shuffle messages;
        the receiver's dedup must still accept each partition once."""
        case = generator.generate_data_case(seed=31, t_rows=400,
                                            l_rows=1_600)
        cell = ConfigCell(algorithm="repartition", workers=30,
                          fault_spec="drop:shuffle:0.05,dup:shuffle:0.2")
        with checking():
            result = run_cell(case, cell)
        oracle.assert_equivalent(result, case.oracle_rows(),
                                 label=cell.label())


# ----------------------------------------------------------------------
# Shrinker
# ----------------------------------------------------------------------
@pytest.fixture
def broken_probe(monkeypatch):
    """Inject a divergence: the probe kernel drops its last match pair.

    The oracle joins with a Python dict, so it is immune — exactly the
    kind of silent engine bug the shrinker exists for.
    """
    original = JoinBuildIndex.probe

    def dropping_probe(self, probe_keys, band=None, **kwargs):
        if band is None:
            build_idx, probe_idx = original(self, probe_keys, **kwargs)
            return build_idx[:-1], probe_idx[:-1]
        build_idx, probe_idx, pairs = original(self, probe_keys, band,
                                               **kwargs)
        return build_idx[:-1], probe_idx[:-1], pairs

    monkeypatch.setattr(JoinBuildIndex, "probe", dropping_probe)


class TestShrinker:
    def test_passing_cell_returns_none(self):
        case = generator.generate_data_case(seed=3, t_rows=200, l_rows=800)
        assert shrink.shrink(case, ConfigCell(algorithm="zigzag"),
                             max_evaluations=5) is None

    def test_injected_divergence_shrinks_to_minimal_repro(
            self, broken_probe):
        case = generator.generate_data_case(seed=7, t_rows=300,
                                            l_rows=900)
        cell = ConfigCell(algorithm="zigzag", workers=30,
                          format_name="text")
        outcome = shrink.shrink(case, cell, max_evaluations=400)
        assert outcome is not None
        # The acceptance bar: a handful of rows, found automatically.
        assert 1 <= outcome.total_rows <= 10
        assert outcome.evaluations <= 400
        # The bug needs no non-default axis, so all were reduced away.
        assert outcome.reduced_axes() == []
        assert outcome.cell.workers == 4
        assert outcome.cell.format_name == "parquet"
        snippet = outcome.snippet()
        assert "generator.with_rows(" in snippet
        assert "generate_data_case(seed=7)" in snippet
        assert "run_cell" in snippet
        assert "row multisets diverge" in outcome.diff
        assert "shrunk" in outcome.report()

    def test_shrink_does_not_change_failure_kind(self, broken_probe):
        """A divergence must not 'shrink' into an unrelated crash (e.g.
        the empty-table loader error)."""
        case = generator.generate_data_case(seed=7, t_rows=300,
                                            l_rows=900)
        cell = ConfigCell(algorithm="zigzag", workers=30,
                          format_name="text")
        outcome = shrink.shrink(case, cell, max_evaluations=400)
        assert "row multisets diverge" in outcome.diff
        assert "raised" not in outcome.diff


# ----------------------------------------------------------------------
# Fuzz driver
# ----------------------------------------------------------------------
class TestFuzzDriver:
    def test_clean_run_reports_ok(self):
        report = fuzz.run_fuzz(seeds=[2015], cells_per_seed=5,
                               rows_scale=0.2)
        assert report.ok
        assert report.cells_run == 5
        assert "0 failure(s)" in report.render()

    def test_failures_are_shrunk_and_written_as_artifacts(
            self, broken_probe, tmp_path):
        report = fuzz.run_fuzz(
            seeds=[2015], cells_per_seed=12, rows_scale=0.2,
            artifact_dir=str(tmp_path), shrink_budget=120,
        )
        assert not report.ok
        assert report.artifact_paths
        record = json.loads(
            (tmp_path / sorted(p.name for p in tmp_path.glob("*.json"))[0])
            .read_text()
        )
        assert record["kind"] == "divergence"
        assert "generator." in record["provenance"]
        assert record["shrunk_rows"] <= 10
        assert "run_cell" in record["snippet"]
        snippets = list(tmp_path.glob("*.py"))
        assert snippets, "repro snippet artifact missing"

    def test_cli_exit_codes(self, broken_probe, capsys):
        from repro.__main__ import main

        code = main(["fuzz", "--seeds", "2015", "--cells-per-seed", "8",
                     "--rows-scale", "0.2", "--shrink-budget", "60"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out


# ----------------------------------------------------------------------
# Join-index cache: verified collision rebuild (service/cache.py)
# ----------------------------------------------------------------------
class TestJoinIndexCacheCollision:
    @staticmethod
    def query_asking(provider, context):
        """Each call is one query under ``context`` asking for its
        index."""
        def ask(*columns):
            return provider.for_query(context)(*columns)
        return ask

    def test_colliding_key_is_verified_and_rebuilt(self):
        from repro.service.cache import (
            CachingJoinIndexProvider,
            JoinIndexCache,
        )

        cache = JoinIndexCache(capacity=8)
        provider = CachingJoinIndexProvider(cache)
        ask = self.query_asking(provider, "colliding-context")
        keys_a = np.array([5, 1, 3, 3], dtype=np.int64)
        first = ask(keys_a)
        assert ask(keys_a) is first  # verified hit
        hits_before = cache.hits.value

        # Same context key, different build side: matches() must reject
        # the stale entry and a fresh index must replace it.
        keys_b = np.array([2, 9], dtype=np.int64)
        rebuilt = ask(keys_b)
        assert rebuilt is not first
        assert rebuilt.matches(keys_b)
        build_idx, probe_idx = rebuilt.probe(
            np.array([9, 4, 2], dtype=np.int64)
        )
        assert keys_b[build_idx].tolist() == [9, 2]
        assert probe_idx.tolist() == [0, 2]
        # The rebuilt index was re-cached under the same key.
        assert ask(keys_b) is rebuilt
        assert cache.hits.value > hits_before

    def test_equal_keys_split_differently_are_rebuilt(self):
        """One entry per query build side: a cached index over the same
        keys with other slot boundaries must miss, or a probe row would
        match rows of a worker it was never sent to."""
        from repro.service.cache import (
            CachingJoinIndexProvider,
            JoinIndexCache,
        )

        provider = CachingJoinIndexProvider(JoinIndexCache(capacity=8))
        ask = self.query_asking(provider, "one-query")
        keys = np.array([4, 7, 4, 7, 4], dtype=np.int64)
        first = ask(keys, None, np.array([0, 2, 5]))
        assert ask(keys, None, np.array([0, 2, 5])) is first
        resplit = ask(keys, None, np.array([0, 3, 5]))
        assert resplit is not first
        # Slot 0 now holds rows 0-2: key 4 matches rows 0 and 2 there,
        # where the stale split would have answered row 0 alone.
        build_idx, probe_idx = resplit.probe(
            np.array([4, 4], dtype=np.int64), slots=np.array([0, 1]))
        assert build_idx.tolist() == [0, 2, 4]
        assert probe_idx.tolist() == [0, 0, 1]
        assert ask(keys, None, np.array([0, 3, 5])) is resplit
        # The same keys as one slot are yet another index.
        assert ask(keys) is not resplit

    def test_grouped_build_sides_keep_one_entry_per_group(self):
        """A query whose build side joins in groups asks once per group;
        the n-th ask of a query is its n-th entry, so a repeat hits all
        of them."""
        from repro.service.cache import (
            CachingJoinIndexProvider,
            JoinIndexCache,
        )

        provider = CachingJoinIndexProvider(JoinIndexCache(capacity=8))
        groups = [np.arange(5), np.arange(7), np.arange(5) + 1]
        for _query in range(2):
            index_for = provider.for_query("grouped")
            indexes = [index_for(keys) for keys in groups]
        index_for = provider.for_query("grouped")
        assert [index_for(keys) for keys in groups] == indexes
        assert provider.cache.hits.value == 6

    def test_poisoned_cache_cannot_change_a_result(self):
        """End-to-end: pre-seed the query's entry with an index over the
        wrong keys (one per worker slot); the engine-side verification
        must rebuild it and the query must still match the oracle."""
        from repro.service.cache import (
            CachingJoinIndexProvider,
            JoinIndexCache,
        )

        case = generator.generate_data_case(seed=13, t_rows=400,
                                            l_rows=1_600)
        warehouse = generator.build_cell_warehouse(case, 4, "parquet")
        cache = JoinIndexCache(capacity=64)
        wrong = np.array([123456789] * warehouse.jen.num_workers,
                         dtype=np.int64)
        poisoned = JoinBuildIndex(
            wrong, slot_bounds=np.arange(warehouse.jen.num_workers + 1))
        cache.put("poison", poisoned)
        provider = CachingJoinIndexProvider(cache)
        result = algorithm_by_name("zigzag").run(
            warehouse, case.query,
            ExecutionContext(index_for=provider.for_query("poison")))
        assert cache.get("poison") is not poisoned  # rebuilt and re-cached
        oracle.assert_equivalent(result.result, case.oracle_rows(),
                                 label="poisoned-cache")
