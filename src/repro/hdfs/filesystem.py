"""The HDFS facade plus the HCatalog metadata service.

:class:`HdfsFileSystem` bundles a NameNode and its DataNodes, exposing
table-level writes (split into format-sized, replicated blocks) and
block-level reads.  :class:`HCatalog` stores the table-level metadata —
path, schema, format — that the paper's JEN coordinator retrieves before
scheduling a scan (Section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.config import ClusterConfig
from repro.errors import CatalogError, StorageError
from repro.hdfs.blocks import Block
from repro.hdfs.datanode import DataNode
from repro.hdfs.formats import StorageFormat, format_by_name
from repro.hdfs.namenode import NameNode
from repro.relational.schema import Schema
from repro.relational.table import Table


@dataclass(frozen=True)
class HdfsTableMeta:
    """HCatalog entry for one HDFS-resident table."""

    name: str
    path: str
    schema: Schema
    format_name: str
    num_rows: int

    def storage_format(self) -> StorageFormat:
        """Resolve the format object."""
        return format_by_name(self.format_name)


class HCatalog:
    """Table metadata service (the paper uses Apache HCatalog)."""

    def __init__(self):
        self._tables: Dict[str, HdfsTableMeta] = {}

    def register(self, meta: HdfsTableMeta) -> None:
        """Add a table, rejecting duplicates."""
        if meta.name in self._tables:
            raise CatalogError(f"HDFS table already registered: {meta.name!r}")
        self._tables[meta.name] = meta

    def lookup(self, name: str) -> HdfsTableMeta:
        """Metadata for ``name``."""
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"unknown HDFS table: {name!r}") from None


class HdfsFileSystem:
    """A NameNode plus its DataNodes, with table-level convenience."""

    def __init__(self, cluster: Optional[ClusterConfig] = None):
        self.cluster = cluster or ClusterConfig()
        self.namenode = NameNode(
            num_datanodes=self.cluster.hdfs_nodes,
            replication=self.cluster.hdfs_replication,
        )
        self.datanodes = [
            DataNode(node_id, num_disks=self.cluster.hdfs_disks_per_node)
            for node_id in range(self.cluster.hdfs_nodes)
        ]
        self.catalog = HCatalog()
        #: Every file's table by catalog name; each block replica is a
        #: zero-copy row range of it.
        self._files: Dict[str, Table] = {}

    # ------------------------------------------------------------------
    def write_table(
        self, name: str, path: str, table: Table, format_name: str,
        target_blocks: Optional[int] = None,
    ) -> List[Block]:
        """Store ``table`` at ``path`` in the given format and register it.

        The table is split into blocks sized by the format's stored row
        width against the configured HDFS block size, then each block's
        replicas are materialised on their DataNodes.

        ``target_blocks`` overrides the byte-based sizing — the warehouse
        uses it to keep the *block count* representative when the data
        plane runs at a small fraction of paper scale, so the
        locality-aware scheduler has something real to balance.
        """
        storage_format = format_by_name(format_name)
        bytes_per_row = storage_format.row_stored_bytes(table.schema)
        if table.num_rows == 0:
            raise StorageError(f"refusing to write empty table {name!r}")
        if target_blocks is not None:
            if target_blocks <= 0:
                raise StorageError("target_blocks must be positive")
            rows_per_block = max(
                1, -(-table.num_rows // target_blocks)
            )
        else:
            rows_per_block = max(
                1, int(self.cluster.hdfs_block_size / bytes_per_row)
            )
        row_counts = []
        remaining = table.num_rows
        while remaining > 0:
            count = min(rows_per_block, remaining)
            row_counts.append(count)
            remaining -= count

        blocks = self.namenode.allocate_blocks(path, row_counts, bytes_per_row)
        for block in blocks:
            rows = table.slice(block.start_row, block.end_row)
            for node_id in block.replicas:
                self.datanodes[node_id].store_replica(block, rows)
        self.catalog.register(
            HdfsTableMeta(
                name=name,
                path=path,
                schema=table.schema,
                format_name=format_name,
                num_rows=table.num_rows,
            )
        )
        self._files[name] = table
        return blocks

    def read_block(self, block: Block, preferred_node: Optional[int] = None
                   ) -> Table:
        """Read one block, preferring a given (usually local) replica.

        Without one, the read goes to the first replica still stored, so
        a block whose primary replica was evicted is rerouted to another
        node; it raises :class:`StorageError` only when every replica is
        gone.
        """
        if preferred_node is not None and preferred_node in block.replicas:
            return self.datanodes[preferred_node].read_block(block)
        for node_id in block.replicas:
            if self.datanodes[node_id].has_replica(block.block_id):
                return self.datanodes[node_id].read_block(block)
        raise StorageError(f"no stored replica of block {block.block_id}")

    def file_table(self, name: str) -> Table:
        """Every row of a registered table, in file order: block ``b``
        is rows ``b.start_row`` to ``b.end_row`` of it."""
        self.catalog.lookup(name)
        return self._files[name]

    def table_blocks(self, name: str) -> List[Block]:
        """All blocks of a registered table."""
        meta = self.catalog.lookup(name)
        return self.namenode.blocks(meta.path)

    def table_meta(self, name: str) -> HdfsTableMeta:
        """HCatalog metadata for a table."""
        return self.catalog.lookup(name)
