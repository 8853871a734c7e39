"""Tests for the warehouse facade and the configuration module."""

import pytest

from repro import HybridWarehouse, default_config
from repro.config import (
    BloomFilterConfig,
    ClusterConfig,
    HybridConfig,
    PaperScale,
)
from repro.errors import CatalogError


class TestConfig:
    def test_paper_cluster_defaults(self):
        cluster = ClusterConfig()
        assert cluster.hdfs_nodes == 30
        assert cluster.db_workers == 30
        assert cluster.db_servers == 5
        assert cluster.jen_workers() == 30
        assert cluster.hdfs_replication == 2

    def test_bloom_defaults_match_paper(self):
        bloom = BloomFilterConfig()
        assert bloom.num_bits == 128 * 1024 * 1024
        assert bloom.num_hashes == 2
        assert bloom.size_bytes() == 16 * 1024 * 1024

    def test_paper_scale_sizes(self):
        paper = PaperScale()
        assert paper.t_rows == 1_600_000_000
        assert paper.l_rows == 15_000_000_000
        assert paper.unique_join_keys == 16_000_000

    def test_scaled_row_counts(self):
        config = default_config(scale=1 / 1000)
        assert config.paper.t_rows * config.scale == 1_600_000
        assert config.paper.l_rows * config.scale == 15_000_000

    def test_scaled_copy(self):
        config = HybridConfig()
        rescaled = config.scaled(0.5)
        assert rescaled.scale == 0.5
        assert rescaled.cluster is config.cluster

    def test_bloom_bits_scale_with_keys(self):
        big = default_config(scale=1.0)
        small = default_config(scale=1 / 10_000)
        assert big.bloom_bits() == 128 * 1024 * 1024
        assert small.bloom_bits() == 128 * 1024 * 1024 // 10_000
        tiny = default_config(scale=1e-9)
        assert tiny.bloom_bits() >= 1024  # floor


class TestWarehouse:
    def test_wiring(self, loaded_warehouse):
        assert loaded_warehouse.database.num_workers == 30
        assert loaded_warehouse.jen.num_workers == 30
        assert loaded_warehouse.topology.switch_bytes_per_s > 0
        assert "extract_group" in loaded_warehouse.udfs.names()

    def test_gather_round_trips(self, loaded_warehouse, paper_workload):
        t = loaded_warehouse.database.gather_table("T")
        assert t.num_rows == paper_workload.t_table.num_rows
        l_table = loaded_warehouse.hdfs.file_table("L")
        assert l_table.num_rows == paper_workload.l_table.num_rows

    def test_duplicate_db_table(self, paper_workload):
        warehouse = HybridWarehouse(default_config(scale=1 / 50_000))
        warehouse.load_db_table("T", paper_workload.t_table, "uniqKey")
        with pytest.raises(CatalogError):
            warehouse.load_db_table("T", paper_workload.t_table, "uniqKey")

    def test_default_hdfs_path(self, paper_workload):
        warehouse = HybridWarehouse(default_config(scale=1 / 50_000))
        warehouse.load_hdfs_table("L", paper_workload.l_table, "text")
        meta = warehouse.hdfs.table_meta("L")
        assert meta.path == "/warehouse/L"
