"""Failure-handling tests: worker failures, bad inputs, edge conditions."""

import pytest

from repro import algorithm_by_name
from repro.errors import JoinError
from repro.testkit import oracle
from tests.conftest import build_test_warehouse


class TestJenWorkerFailure:
    def test_scan_survives_worker_failure(self, paper_workload,
                                          paper_query):
        warehouse = build_test_warehouse(paper_workload)
        warehouse.jen.fail_worker(7)
        assert warehouse.jen.num_workers == 29
        scan = warehouse.jen.distributed_scan(paper_query)
        # Every row of L is still scanned exactly once.
        assert scan.stats.rows_scanned == paper_workload.l_table.num_rows

    def test_join_correct_after_failure(self, paper_workload, paper_query,
                                        paper_oracle):
        warehouse = build_test_warehouse(paper_workload)
        warehouse.jen.fail_worker(0)
        warehouse.jen.fail_worker(15)
        for name in ("zigzag", "repartition", "db(BF)"):
            result = algorithm_by_name(name).run(warehouse, paper_query)
            oracle.assert_equivalent(result.result, paper_oracle, label=name)

    def test_locality_degrades_but_survives(self, paper_workload,
                                            paper_query):
        warehouse = build_test_warehouse(paper_workload)
        healthy = warehouse.jen.coordinator.plan_scan(
            paper_query.hdfs_table
        ).locality_fraction()
        warehouse.jen.fail_worker(3)
        degraded = warehouse.jen.coordinator.plan_scan(
            paper_query.hdfs_table
        ).locality_fraction()
        assert degraded <= healthy
        # Replication factor 2 keeps most blocks locally readable.
        assert degraded > 0.5

    def test_unknown_worker_rejected(self, paper_workload):
        warehouse = build_test_warehouse(paper_workload)
        with pytest.raises(JoinError, match="no live JEN worker"):
            warehouse.jen.fail_worker(999)

    def test_cannot_fail_all_workers(self, paper_workload):
        warehouse = build_test_warehouse(paper_workload)
        for worker_id in range(29):
            warehouse.jen.fail_worker(worker_id)
        with pytest.raises(JoinError, match="last JEN worker"):
            warehouse.jen.fail_worker(29)

    def test_double_failure_rejected(self, paper_workload):
        warehouse = build_test_warehouse(paper_workload)
        warehouse.jen.fail_worker(5)
        with pytest.raises(JoinError):
            warehouse.jen.fail_worker(5)

    def test_single_survivor_runs_everything(self, paper_workload,
                                             paper_query, paper_oracle):
        warehouse = build_test_warehouse(paper_workload)
        for worker_id in range(29):
            warehouse.jen.fail_worker(worker_id)
        result = algorithm_by_name("repartition").run(
            warehouse, paper_query
        )
        oracle.assert_equivalent(result.result, paper_oracle)


class TestBadInputs:
    def test_query_against_missing_tables(self, paper_workload,
                                          paper_query):
        from repro import HybridWarehouse, default_config
        from repro.errors import CatalogError

        warehouse = HybridWarehouse(default_config(scale=1 / 50_000))
        with pytest.raises(CatalogError):
            algorithm_by_name("zigzag").run(warehouse, paper_query)

    def test_unknown_algorithm_name(self):
        with pytest.raises(JoinError, match="unknown join algorithm"):
            algorithm_by_name("hyperloop")

    def test_bf_suffix_parsing(self):
        repartition = algorithm_by_name("repartition(BF)")
        assert repartition.use_bloom
        db = algorithm_by_name("db(BF)")
        assert db.use_bloom
        plain = algorithm_by_name("repartition")
        assert not plain.use_bloom
