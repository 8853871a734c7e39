"""Tests for the JEN engine: coordinator, workers, exchange, facade."""

import numpy as np
import pytest

from repro.core.bloom import BloomFilter
from repro.errors import CatalogError, JoinError
from repro.jen.coordinator import JenCoordinator
from repro.jen.exchange import shuffle
from repro.jen.worker import JenWorker
from tests.conftest import build_test_warehouse, make_test_spec

from repro import generate_workload, build_paper_query


def plan(coordinator, table_name):
    """The coordinator's scan plan over the workers it has up."""
    return coordinator.plan_scan(table_name, coordinator.live_workers())


def full_scan(warehouse, query, **kwargs):
    """A fault-free distributed scan of the query's HDFS table."""
    return warehouse.jen.distributed_scan(
        query, warehouse.jen.open_cluster(), **kwargs)


@pytest.fixture(scope="module")
def env():
    workload = generate_workload(make_test_spec())
    warehouse = build_test_warehouse(workload)
    return workload, warehouse, build_paper_query(workload)


class TestCoordinator:
    def test_plan_scan_covers_all_blocks(self, env):
        _workload, warehouse, query = env
        assignment = plan(warehouse.jen.coordinator, query.hdfs_table)
        blocks = warehouse.hdfs.table_blocks(query.hdfs_table)
        assigned = sum(
            len(assignment.blocks_for(w))
            for w in range(warehouse.jen.num_workers)
        )
        assert assigned == len(blocks)

    def test_plan_scan_cached(self, env):
        _workload, warehouse, query = env
        first = plan(warehouse.jen.coordinator, query.hdfs_table)
        second = plan(warehouse.jen.coordinator, query.hdfs_table)
        assert first is second

    def test_locality_is_high(self, env):
        _workload, warehouse, query = env
        assignment = plan(warehouse.jen.coordinator, query.hdfs_table)
        assert assignment.locality_fraction() >= 0.9

    def test_worker_registry(self, env):
        _workload, warehouse, _query = env
        coordinator = warehouse.jen.coordinator
        assert len(coordinator.live_workers()) == warehouse.jen.num_workers
        with pytest.raises(CatalogError):
            coordinator.mark_worker(10_000, up=False)

    def test_membership_change_invalidates_plans(self, env):
        _workload, warehouse, query = env
        coordinator = JenCoordinator(warehouse.hdfs, 4)
        plan(coordinator, query.hdfs_table)
        coordinator.mark_worker(3, up=False)
        assert len(coordinator.live_workers()) == 3
        replanned = plan(coordinator, query.hdfs_table)
        assigned = sum(len(replanned.blocks_for(w)) for w in range(3))
        assert assigned == len(warehouse.hdfs.table_blocks(query.hdfs_table))
        coordinator.mark_worker(3, up=True)

    def test_table_meta_via_coordinator(self, env):
        workload, warehouse, query = env
        meta = warehouse.jen.coordinator.table_meta(query.hdfs_table)
        assert meta.num_rows == workload.l_table.num_rows


class TestDistributedScan:
    def test_scan_equals_reference_filter(self, env):
        workload, warehouse, query = env
        scan = full_scan(warehouse, query)
        expected_mask = query.hdfs_predicate.evaluate(workload.l_table)
        assert scan.stats.rows_scanned == workload.l_table.num_rows
        assert scan.stats.rows_after_predicates == int(expected_mask.sum())
        assert scan.stats.rows_after_bloom == scan.stats.rows_after_predicates
        total_wire = sum(w.num_rows for w in scan.wire_tables)
        assert total_wire == int(expected_mask.sum())

    def test_wire_schema_matches_query(self, env):
        _workload, warehouse, query = env
        scan = full_scan(warehouse, query)
        assert scan.wire_tables[0].schema.names == query.hdfs_wire_columns()

    def test_scan_with_bloom_prunes_but_never_drops_joiners(self, env):
        workload, warehouse, query = env
        t_mask = query.db_predicate.evaluate(workload.t_table)
        t_keys = np.unique(workload.t_table.column("joinKey")[t_mask])
        bloom = BloomFilter(
            warehouse.config.bloom_bits(),
            warehouse.config.bloom.num_hashes,
        )
        bloom.add(t_keys)
        plain = full_scan(warehouse, query)
        pruned = full_scan(warehouse, query, db_bloom=bloom)
        assert pruned.stats.rows_after_bloom < plain.stats.rows_after_bloom
        # Joining rows always survive.
        kept_keys = np.unique(np.concatenate([
            w.column(query.hdfs_join_key) for w in pruned.wire_tables
        ]))
        joining = np.intersect1d(
            t_keys,
            np.unique(np.concatenate([
                w.column(query.hdfs_join_key) for w in plain.wire_tables
            ])),
        )
        assert np.isin(joining, kept_keys).all()

    def test_local_bloom_build_during_scan(self, env):
        _workload, warehouse, query = env
        scan = full_scan(warehouse, query, build_hdfs_bloom=True)
        merged = scan.global_bloom()
        assert merged is scan.hdfs_bloom
        assert merged.num_added == scan.stats.rows_after_bloom
        all_keys = np.unique(np.concatenate([
            w.column(query.hdfs_join_key) for w in scan.wire_tables
        ]))
        assert merged.contains(all_keys).all()

    def test_global_bloom_requires_build_flag(self, env):
        _workload, warehouse, query = env
        scan = full_scan(warehouse, query)
        with pytest.raises(JoinError):
            scan.global_bloom()


class TestShuffleExchange:
    def test_shuffle_conserves_and_partitions_by_key(self, env):
        _workload, warehouse, query = env
        scan = full_scan(warehouse, query)
        shuffled = warehouse.jen.shuffle_by_key(
            scan.wire_tables, query.hdfs_join_key,
            warehouse.jen.open_cluster()
        )
        total = sum(t.num_rows for t in shuffled.per_destination)
        assert total == shuffled.tuples_shuffled
        assert shuffled.tuples_remote < shuffled.tuples_shuffled
        # A key lands on exactly one destination.
        seen = {}
        for dest, table in enumerate(shuffled.per_destination):
            for key in np.unique(table.column(query.hdfs_join_key)):
                assert seen.setdefault(int(key), dest) == dest

    def test_ragged_shuffle_rejected(self, env):
        _workload, warehouse, query = env
        scan = full_scan(warehouse, query)
        with pytest.raises(JoinError, match="ragged"):
            shuffle([scan.wire_tables[0]], np.zeros((2, 3), dtype=np.int64))

    def test_empty_shuffle_rejected(self):
        with pytest.raises(JoinError, match="at least one sender"):
            shuffle([], np.zeros((0, 0), dtype=np.int64))
        with pytest.raises(JoinError, match="at least one sender"):
            JenWorker.partition_for_exchange([], "joinKey", 4)


class TestDerivedColumns:
    def test_url_prefix_derivation(self, env):
        workload, _warehouse, query = env
        filtered = workload.l_table.slice(0, 50).project(
            list(query.hdfs_projection)
        )
        (url_prefix,) = query.hdfs_derived
        derived = url_prefix.apply(filtered)
        prefixes = derived.strings("urlPrefix")
        urls = filtered.strings("groupByExtractCol")
        for url, prefix in zip(urls, prefixes):
            assert url.startswith(prefix)
            assert "/item/" not in prefix


class TestScanRequest:
    def test_from_query_round_trip(self, env):
        from repro.jen.worker import ScanRequest

        _workload, _warehouse, query = env
        request = ScanRequest.from_query(query)
        assert request.projection == query.hdfs_projection
        assert request.wire_columns == query.hdfs_wire_columns()
        assert request.join_key == query.hdfs_join_key

    def test_scan_with_request_custom_projection(self, env):
        from repro.jen.worker import ScanRequest
        from repro.relational.expressions import compare

        workload, warehouse, _query = env
        request = ScanRequest(
            predicate=compare("corPred", "<=", 1000),
            projection=("joinKey",),
            derived=(),
            wire_columns=("joinKey",),
            join_key=None,
        )
        scan = warehouse.jen.scan_with_request(
            "L", request, warehouse.jen.open_cluster())
        total = sum(w.num_rows for w in scan.wire_tables)
        expected = int(
            (workload.l_table.column("corPred") <= 1000).sum()
        )
        assert total == expected
        assert scan.wire_tables[0].schema.names == ("joinKey",)

    def test_request_without_join_key_skips_bloom(self, env):
        from repro.core.bloom import BloomFilter
        from repro.jen.worker import ScanRequest
        from repro.relational.expressions import TruePredicate

        _workload, warehouse, _query = env
        empty_bloom = BloomFilter(1024)  # would drop everything
        request = ScanRequest(
            predicate=TruePredicate(),
            projection=("joinKey",),
            derived=(),
            wire_columns=("joinKey",),
            join_key=None,
        )
        scan = warehouse.jen.scan_with_request(
            "L", request, warehouse.jen.open_cluster(), db_bloom=empty_bloom
        )
        # No join key declared: the Bloom filter cannot apply.
        assert scan.stats.rows_after_bloom == \
            scan.stats.rows_after_predicates
