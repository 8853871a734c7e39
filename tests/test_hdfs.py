"""Tests for the simulated HDFS: NameNode, DataNodes, filesystem."""

import numpy as np
import pytest

from repro.config import ClusterConfig
from repro.errors import CatalogError, StorageError
from repro.hdfs.blocks import Block
from repro.hdfs.datanode import DataNode
from repro.hdfs.filesystem import HdfsFileSystem
from repro.hdfs.namenode import NameNode
from repro.relational.schema import Column, DataType, Schema
from repro.relational.table import Table


def small_cluster(nodes=6, block_size=4096):
    return ClusterConfig(
        hdfs_nodes=nodes,
        hdfs_block_size=block_size,
        hdfs_replication=2,
    )


def int_table(rows):
    schema = Schema([Column("a", DataType.INT64),
                     Column("b", DataType.INT32)])
    return Table(schema, {
        "a": np.arange(rows, dtype=np.int64),
        "b": np.arange(rows, dtype=np.int32),
    })


class TestNameNode:
    def test_allocate_and_lookup(self):
        namenode = NameNode(5, replication=2)
        blocks = namenode.allocate_blocks("/f", [10, 10, 4], 100.0)
        assert [b.num_rows for b in blocks] == [10, 10, 4]
        assert blocks[1].start_row == 10
        assert namenode.blocks("/f") == blocks
        assert namenode.exists("/f")

    def test_replication_distinct_nodes(self):
        namenode = NameNode(5, replication=3)
        blocks = namenode.allocate_blocks("/f", [1] * 20, 10.0)
        for block in blocks:
            assert len(set(block.replicas)) == 3

    def test_replicas_spread_over_cluster(self):
        namenode = NameNode(6, replication=2)
        blocks = namenode.allocate_blocks("/f", [1] * 60, 10.0)
        first_replicas = {block.replicas[0] for block in blocks}
        assert first_replicas == set(range(6))

    def test_duplicate_file_rejected(self):
        namenode = NameNode(3)
        namenode.allocate_blocks("/f", [1], 1.0)
        with pytest.raises(StorageError, match="already exists"):
            namenode.allocate_blocks("/f", [1], 1.0)

    def test_missing_file(self):
        with pytest.raises(StorageError, match="no such file"):
            NameNode(3).blocks("/ghost")

    def test_delete(self):
        namenode = NameNode(3)
        namenode.allocate_blocks("/f", [1], 1.0)
        namenode.delete("/f")
        assert not namenode.exists("/f")

    def test_impossible_replication(self):
        with pytest.raises(StorageError):
            NameNode(2, replication=3)


class TestBlocks:
    def test_validation(self):
        with pytest.raises(StorageError):
            Block(1, "/f", 0, 0, 0.0, (0,))
        with pytest.raises(StorageError):
            Block(1, "/f", 0, 5, 10.0, ())
        with pytest.raises(StorageError, match="replicated twice"):
            Block(1, "/f", 0, 5, 10.0, (2, 2))

    def test_end_row(self):
        block = Block(1, "/f", 10, 5, 10.0, (0,))
        assert block.end_row == 15


class TestDataNode:
    def test_store_and_read(self):
        node = DataNode(0)
        block = Block(7, "/f", 0, 3, 30.0, (0, 1))
        rows = int_table(3)
        node.store_replica(block, rows)
        assert node.has_replica(7)
        assert node.read_block(block).num_rows == 3
        assert node.stored_blocks() == 1

    def test_wrong_target_rejected(self):
        node = DataNode(5)
        block = Block(7, "/f", 0, 3, 30.0, (0, 1))
        with pytest.raises(StorageError, match="not a replica target"):
            node.store_replica(block, int_table(3))

    def test_row_count_mismatch(self):
        node = DataNode(0)
        block = Block(7, "/f", 0, 3, 30.0, (0,))
        with pytest.raises(StorageError, match="expects 3 rows"):
            node.store_replica(block, int_table(5))

    def test_missing_replica_read(self):
        node = DataNode(0)
        block = Block(7, "/f", 0, 3, 30.0, (0,))
        with pytest.raises(StorageError, match="no replica"):
            node.read_block(block)

    def test_evict(self):
        node = DataNode(0)
        block = Block(7, "/f", 0, 3, 30.0, (0,))
        node.store_replica(block, int_table(3))
        node.evict(7)
        assert not node.has_replica(7)


class TestFileSystem:
    def test_write_splits_into_blocks(self):
        fs = HdfsFileSystem(small_cluster(block_size=1024))
        table = int_table(2000)
        blocks = fs.write_table("t", "/t", table, "parquet")
        assert len(blocks) > 1
        assert sum(b.num_rows for b in blocks) == 2000

    def test_round_trip_all_rows(self):
        fs = HdfsFileSystem(small_cluster(block_size=1024))
        table = int_table(500)
        fs.write_table("t", "/t", table, "text")
        blocks = fs.table_blocks("t")
        combined = Table.concat([fs.read_block(b) for b in blocks])
        assert combined.to_rows() == table.to_rows()

    def test_catalog_metadata(self):
        fs = HdfsFileSystem(small_cluster())
        fs.write_table("t", "/t", int_table(10), "parquet")
        meta = fs.table_meta("t")
        assert meta.num_rows == 10
        assert meta.format_name == "parquet"
        assert meta.storage_format().supports_projection_pushdown

    def test_unknown_table(self):
        fs = HdfsFileSystem(small_cluster())
        with pytest.raises(CatalogError):
            fs.table_meta("ghost")

    def test_empty_table_rejected(self):
        fs = HdfsFileSystem(small_cluster())
        with pytest.raises(StorageError, match="empty table"):
            fs.write_table("t", "/t", int_table(0), "text")

    def test_duplicate_registration_rejected(self):
        fs = HdfsFileSystem(small_cluster())
        fs.write_table("t", "/t", int_table(10), "text")
        with pytest.raises(CatalogError):
            fs.write_table("t", "/t2", int_table(10), "text")

    def test_replicas_materialised_on_datanodes(self):
        fs = HdfsFileSystem(small_cluster(block_size=1024))
        fs.write_table("t", "/t", int_table(1000), "text")
        for block in fs.table_blocks("t"):
            for node_id in block.replicas:
                assert fs.datanodes[node_id].has_replica(block.block_id)

    def test_preferred_node_read(self):
        fs = HdfsFileSystem(small_cluster(block_size=1024))
        fs.write_table("t", "/t", int_table(100), "text")
        block = fs.table_blocks("t")[0]
        local = fs.read_block(block, preferred_node=block.replicas[1])
        assert local.num_rows == block.num_rows

    def test_evicted_primary_rerouted(self):
        fs = HdfsFileSystem(small_cluster(block_size=1024))
        fs.write_table("t", "/t", int_table(100), "text")
        block = fs.table_blocks("t")[0]
        primary, backup = block.replicas[:2]
        expected = fs.read_block(block)
        fs.datanodes[primary].evict(block.block_id)
        assert fs.read_block(block) is \
            fs.datanodes[backup].read_block(block)
        assert fs.read_block(block).to_rows() == expected.to_rows()
        for node_id in block.replicas:
            fs.datanodes[node_id].evict(block.block_id)
        with pytest.raises(StorageError, match="no stored replica"):
            fs.read_block(block)
