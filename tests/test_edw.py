"""Tests for the parallel database substrate (worker, database,
optimizer, UDF registry)."""

import numpy as np
import pytest

from repro.config import ClusterConfig
from repro.core.bloom import BloomFilter
from repro.edw.database import ParallelDatabase
from repro.edw.optimizer import DbJoinStrategy, choose_db_join_strategy
from repro.edw.udf import default_udf_registry
from repro.edw.worker import DbWorker
from repro.errors import CatalogError, UdfError
from repro.relational.expressions import compare
from repro.relational.schema import Column, DataType, Schema
from repro.relational.table import Table


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
        assert set(registry.names()) >= {
            "cal_filter", "get_filter", "combine_filter", "extract_group"
        }

    def test_filter_pipeline(self):
        registry = default_udf_registry()
        local_a = registry.call("cal_filter", np.array([1, 2]), 1024)
        local_b = registry.call("cal_filter", np.array([3]), 1024)
        merged = registry.call(
            "combine_filter",
            [registry.call("get_filter", local_a), local_b],
        )
        assert merged.contains(np.array([1, 2, 3])).all()

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
            registry.register("cal_filter", lambda: None)


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
        ingested = l_rows.split(4)
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
