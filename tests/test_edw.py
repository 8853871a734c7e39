"""Tests for the parallel database substrate (worker, database,
optimizer, UDF registry)."""

import numpy as np
import pytest

from repro.config import ClusterConfig
from repro.core.bloom import BloomFilter
from repro.edw.database import ParallelDatabase
from repro.edw.optimizer import DbJoinStrategy, choose_db_join_strategy
from repro.edw.udf import default_udf_registry
from repro.edw.worker import DbWorker, WorkerAccessStats
from repro.errors import CatalogError, UdfError
from repro.relational.expressions import (
    TruePredicate,
    UdfPredicate,
    compare,
)
from repro.relational.schema import Column, DataType, Schema
from repro.relational.table import Table
from tests.conftest import split_table


def small_db(workers=6, servers=3):
    return ParallelDatabase(ClusterConfig(db_workers=workers,
                                          db_servers=servers))


def sample_table(rows=600, seed=3):
    rng = np.random.default_rng(seed)
    schema = Schema([
        Column("uniqKey", DataType.INT64),
        Column("joinKey", DataType.INT32),
        Column("corPred", DataType.INT32),
        Column("indPred", DataType.INT32),
    ])
    return Table(schema, {
        "uniqKey": np.arange(rows, dtype=np.int64),
        "joinKey": rng.integers(0, 40, rows).astype(np.int32),
        "corPred": rng.integers(0, 100, rows).astype(np.int32),
        "indPred": rng.integers(0, 100, rows).astype(np.int32),
    })


class TestLoading:
    def test_partitions_conserve_rows(self):
        db = small_db()
        table = sample_table()
        db.create_table("T", table, distribute_on="uniqKey")
        gathered = db.gather_table("T")
        assert gathered.num_rows == table.num_rows
        assert sorted(r[0] for r in gathered.to_rows()) == \
            sorted(r[0] for r in table.to_rows())

    def test_worker_and_server_layout(self):
        db = small_db(workers=6, servers=3)
        assert db.num_workers == 6
        assert [w.server_id for w in db.workers] == [0, 0, 1, 1, 2, 2]

    def test_duplicate_table_rejected(self):
        db = small_db()
        db.create_table("T", sample_table(), "uniqKey")
        with pytest.raises(CatalogError, match="already exists"):
            db.create_table("T", sample_table(), "uniqKey")

    def test_unknown_table(self):
        with pytest.raises(CatalogError):
            small_db().table_meta("ghost")

    def test_unknown_distribution_column(self):
        with pytest.raises(Exception):
            small_db().create_table("T", sample_table(), "ghost")


class TestParallelOps:
    def setup_method(self):
        self.db = small_db()
        self.table = sample_table()
        self.db.create_table("T", self.table, "uniqKey")
        self.predicate = compare("corPred", "<=", 30)

    def test_filter_project_matches_single_node(self):
        parts, stats = self.db.filter_project(
            "T", self.predicate, ["joinKey"]
        )
        distributed = sorted(
            key for part in parts for key in part.column("joinKey").tolist()
        )
        expected = sorted(
            self.table.filter(self.predicate.evaluate(self.table))
            .column("joinKey").tolist()
        )
        assert distributed == expected
        assert sum(s.rows_out for s in stats) == len(expected)

    def test_global_bloom_covers_exactly_filtered_keys(self):
        result = self.db.build_global_bloom(
            "T", self.predicate, "joinKey", num_bits=4096
        )
        mask = self.predicate.evaluate(self.table)
        keys = np.unique(self.table.column("joinKey")[mask])
        assert result.bloom.contains(keys).all()
        assert result.keys_added == int(mask.sum())
        assert not result.index_only  # no index created here

    def test_global_bloom_index_only(self):
        self.db.create_index("T", "idx",
                             ["corPred", "indPred", "joinKey"])
        result = self.db.build_global_bloom(
            "T", self.predicate, "joinKey", num_bits=4096
        )
        assert result.index_only

    def test_index_only_bloom_same_keys_as_scan(self):
        plain = self.db.build_global_bloom(
            "T", self.predicate, "joinKey", num_bits=4096
        )
        self.db.create_index("T", "idx",
                             ["corPred", "indPred", "joinKey"])
        indexed = self.db.build_global_bloom(
            "T", self.predicate, "joinKey", num_bits=4096
        )
        probes = np.arange(0, 200)
        assert (plain.bloom.contains(probes)
                == indexed.bloom.contains(probes)).all()
        assert np.array_equal(plain.bloom._words, indexed.bloom._words)
        assert plain.keys_added == indexed.keys_added

    def test_predicate_the_index_cannot_evaluate_scans(self):
        """A UDF over a covered column: the covering index cannot
        evaluate it alone, so every worker scans its partition, the
        build says so, and BF_DB holds the scan-built filter's bits."""
        predicate = UdfPredicate("odd", "corPred",
                                 lambda values: values % 2 == 1)
        plain = self.db.build_global_bloom(
            "T", predicate, "joinKey", num_bits=4096
        )
        self.db.create_index("T", "idx",
                             ["corPred", "indPred", "joinKey"])
        indexed = self.db.build_global_bloom(
            "T", predicate, "joinKey", num_bits=4096
        )
        assert not indexed.index_only
        assert np.array_equal(plain.bloom._words, indexed.bloom._words)
        assert indexed.keys_added == int(
            predicate.evaluate(self.table).sum())
        assert indexed.rows_accessed == self.table.num_rows


def per_worker_filter_project(db, table_name, predicate, projection):
    """The per-worker loop the one-pass filter replaced: each worker
    evaluates the predicate on its own partition, filters all of its
    columns, then projects."""
    parts, stats = [], []
    for worker in db.workers:
        partition = worker.partition(table_name)
        part = partition.filter(predicate.evaluate(partition)).project(
            list(projection))
        parts.append(part)
        stats.append(WorkerAccessStats(rows_scanned=partition.num_rows,
                                       rows_out=part.num_rows))
    return parts, stats


def tagged_table(rows, seed):
    """``sample_table`` plus a dictionary-encoded column."""
    table = sample_table(rows, seed)
    tags = np.array(["a", "b", "c"], dtype=object)
    codes = np.random.default_rng(seed).integers(0, 3, rows)
    return table.with_column(Column("tag", DataType.DICT_STRING, 8),
                             codes.astype(np.int32), dictionary=tags)


def random_predicate(rng):
    """One to three range conjuncts, sometimes OR-ed with another."""
    ops = ["<=", "<", ">", ">=", "=="]
    columns = ["corPred", "indPred", "joinKey"]
    predicate = compare(rng.choice(columns), rng.choice(ops),
                        int(rng.integers(-5, 105)))
    for _ in range(int(rng.integers(0, 3))):
        predicate = predicate & compare(rng.choice(columns),
                                        rng.choice(ops),
                                        int(rng.integers(-5, 105)))
    if rng.random() < 0.3:
        predicate = predicate & UdfPredicate(
            "odd", "corPred", lambda values: values % 2 == 1)
    return predicate


class TestOnePassFilter:
    """``ParallelDatabase.filter_project`` against the per-worker loop:
    part for part bit-equal, stats field-equal."""

    PROJECTIONS = (["joinKey"], ["joinKey", "indPred"], ["tag", "uniqKey"],
                   ["corPred", "tag", "joinKey", "indPred", "uniqKey"])

    def assert_same_filter(self, db, name, predicate, projection):
        parts, stats = db.filter_project(name, predicate, projection)
        expected_parts, expected_stats = per_worker_filter_project(
            db, name, predicate, projection)
        assert stats == expected_stats
        assert len(parts) == len(expected_parts) == db.num_workers
        for part, expected in zip(parts, expected_parts):
            assert list(part.schema) == list(expected.schema)
            for column in projection:
                assert part.column(column).dtype == \
                    expected.column(column).dtype
                assert np.array_equal(part.column(column),
                                      expected.column(column))
            if "tag" in projection:
                assert part.dictionary("tag") is expected.dictionary("tag")

    def test_random_predicates(self):
        rng = np.random.default_rng(42)
        db = small_db(workers=6, servers=3)
        db.create_table("T", tagged_table(600, seed=3), "uniqKey")
        for trial in range(60):
            self.assert_same_filter(
                db, "T", random_predicate(rng),
                self.PROJECTIONS[trial % len(self.PROJECTIONS)])

    def test_empty_partitions(self):
        db = small_db(workers=6, servers=3)
        db.create_table("T", tagged_table(4, seed=5), "uniqKey")
        sizes = [worker.partition("T").num_rows for worker in db.workers]
        assert 0 in sizes and sum(sizes) == 4
        for projection in self.PROJECTIONS:
            self.assert_same_filter(db, "T", compare("corPred", "<=", 60),
                                    projection)
        db.create_table("E", tagged_table(0, seed=5), "uniqKey")
        self.assert_same_filter(db, "E", TruePredicate(), ["joinKey", "tag"])

    def test_all_pass_and_none_pass(self):
        db = small_db(workers=6, servers=3)
        db.create_table("T", tagged_table(600, seed=3), "uniqKey")
        for predicate in (TruePredicate(), compare("corPred", "<", 1000),
                          compare("corPred", ">", 1000)):
            for projection in self.PROJECTIONS:
                self.assert_same_filter(db, "T", predicate, projection)
        parts, stats = db.filter_project("T", compare("corPred", ">", 1000),
                                         ["joinKey"])
        assert sum(part.num_rows for part in parts) == 0
        assert sum(s.rows_scanned for s in stats) == 600

    def test_registered_partitioned_table(self):
        """Pre-partitioned parts, some empty: the filter sees each as
        its worker's partition."""
        db = small_db(workers=4, servers=2)
        table = tagged_table(300, seed=11)
        parts = [table.slice(0, 0), table.slice(0, 120),
                 table.slice(120, 120), table.slice(120, 300)]
        db.register_partitioned_table("D", parts, distribute_on="joinKey")
        for worker, part in zip(db.workers, parts):
            assert worker.partition("D").to_rows() == part.to_rows()
        rng = np.random.default_rng(7)
        for trial in range(20):
            self.assert_same_filter(
                db, "D", random_predicate(rng),
                self.PROJECTIONS[trial % len(self.PROJECTIONS)])

    def test_unknown_table(self):
        with pytest.raises(CatalogError, match="unknown database table"):
            small_db().filter_project("ghost", TruePredicate(), ["joinKey"])


class TestWorker:
    def test_apply_bloom_keeps_members(self):
        bloom = BloomFilter(2048)
        bloom.add(np.array([1, 2, 3]))
        table = sample_table(50)
        parts = [table.slice(0, 20), table.slice(20, 20), table.slice(20, 50)]
        kept = DbWorker.apply_bloom(parts, "joinKey", bloom)
        exact = {1, 2, 3}
        # No row with a member key may be dropped (no false negatives),
        # and each part keeps exactly its own rows' verdicts.
        assert len(kept) == len(parts)
        for part, pruned in zip(parts, kept):
            expected = part.filter(bloom.contains(part.column("joinKey")))
            assert pruned.to_rows() == expected.to_rows()
            members = sum(
                1 for k in part.column("joinKey").tolist() if k in exact
            )
            assert pruned.num_rows >= members

    def test_partition_for_send_conserves(self):
        # DbWorker.partition_for_send became the one-pass exchange.
        from repro.core.joins.repartition import _route_db_rows

        table = sample_table(100)
        parts, _hot, _copies = _route_db_rows(
            [table.slice(0, 60), table.slice(60, 100)], "joinKey", 7
        )
        assert sum(p.num_rows for p in parts) == 100

    def test_duplicate_partition_store_rejected(self):
        worker = DbWorker(0, 0)
        worker.store_partition("T", sample_table(10))
        with pytest.raises(CatalogError, match="already stores"):
            worker.store_partition("T", sample_table(10))

    def test_missing_partition(self):
        with pytest.raises(CatalogError, match="no partition"):
            DbWorker(0, 0).partition("T")


class TestOptimizer:
    def test_broadcast_small_db_side(self):
        choice = choose_db_join_strategy(10.0, 10_000.0, 10)
        assert choice.strategy is DbJoinStrategy.BROADCAST_DB_SIDE
        assert choice.internal_bytes == 100.0

    def test_broadcast_small_hdfs_side(self):
        choice = choose_db_join_strategy(10_000.0, 10.0, 10)
        assert choice.strategy is DbJoinStrategy.BROADCAST_HDFS_SIDE

    def test_repartition_for_comparable_sides(self):
        choice = choose_db_join_strategy(1000.0, 900.0, 10)
        assert choice.strategy is DbJoinStrategy.REPARTITION_BOTH
        assert choice.internal_bytes == 1900.0

    def test_tie_prefers_repartition(self):
        # workers=2: broadcast cost == repartition cost when sides equal.
        choice = choose_db_join_strategy(100.0, 100.0, 2)
        assert choice.strategy is DbJoinStrategy.REPARTITION_BOTH


class TestUdfRegistry:
    def test_paper_udfs_present(self):
        registry = default_udf_registry()
        assert set(registry.names()) >= {"extract_group"}

    def test_extract_group(self):
        registry = default_udf_registry()
        assert registry.call(
            "extract_group", "http://shop1.example.com/item/p1"
        ) == "http://shop1.example.com"
        assert registry.call("extract_group", "bare-string") == "bare-string"

    def test_unknown_udf(self):
        with pytest.raises(UdfError, match="unknown UDF"):
            default_udf_registry().call("nope")

    def test_duplicate_registration(self):
        registry = default_udf_registry()
        with pytest.raises(UdfError, match="already registered"):
            registry.register("extract_group", lambda: None)


class TestHybridJoinStrategies:
    """Direct execution of all three in-database physical plans."""

    def _inputs(self):
        from repro.relational.aggregates import AggregateSpec
        from repro.query.query import HybridQuery

        db = small_db(workers=4, servers=2)
        t = sample_table(400, seed=9)
        db.create_table("T", t, "uniqKey")
        t_parts, _ = db.filter_project(
            "T", compare("corPred", "<=", 60), ["joinKey", "indPred"]
        )
        # Fake ingested HDFS rows: arbitrary grouping across workers.
        l_rows = sample_table(300, seed=10).rename(
            {"uniqKey": "l_uniq"}
        ).project(["joinKey", "corPred"])
        ingested = split_table(l_rows, 4)
        query = HybridQuery(
            db_table="T", hdfs_table="L",
            db_join_key="joinKey", hdfs_join_key="joinKey",
            db_projection=("joinKey", "indPred"),
            hdfs_projection=("joinKey", "corPred"),
            group_by=("l_joinKey",),
            aggregates=(AggregateSpec("count"),),
        )
        return db, t_parts, ingested, query

    def test_all_strategies_agree(self):
        from repro.edw.optimizer import DbJoinChoice, DbJoinStrategy

        db, t_parts, ingested, query = self._inputs()
        results = {}
        for strategy in DbJoinStrategy:
            result, stats = db.execute_hybrid_join(
                t_parts, ingested, query, DbJoinChoice(strategy, 0.0)
            )
            results[strategy] = result.to_rows()
            assert stats.result_rows == result.num_rows
        values = list(results.values())
        assert values[0] == values[1] == values[2]

    def test_partition_count_validated(self):
        from repro.edw.optimizer import DbJoinChoice, DbJoinStrategy

        db, t_parts, ingested, query = self._inputs()
        with pytest.raises(CatalogError, match="partitions"):
            db.execute_hybrid_join(
                t_parts[:2], ingested, query,
                DbJoinChoice(DbJoinStrategy.REPARTITION_BOTH, 0.0),
            )
        with pytest.raises(CatalogError, match="ingested"):
            db.execute_hybrid_join(
                t_parts, ingested[:1], query,
                DbJoinChoice(DbJoinStrategy.REPARTITION_BOTH, 0.0),
            )
