"""DataNodes: replica storage and local block reads.

Replicas are zero-copy views into the loaded table, so replication does
not multiply memory; what matters is the *placement*, which drives the
scheduler's locality decisions, and the per-node disk count, which
drives scan parallelism in the cost model.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import StorageError
from repro.hdfs.blocks import Block, BlockId
from repro.relational.table import Table


class DataNode:
    """One storage node of the simulated HDFS cluster."""

    def __init__(self, node_id: int, num_disks: int = 4):
        if num_disks <= 0:
            raise StorageError("a DataNode needs at least one disk")
        self.node_id = node_id
        self.num_disks = num_disks
        self._replicas: Dict[BlockId, Table] = {}

    def store_replica(self, block: Block, rows: Table) -> None:
        """Accept a replica of ``block`` with its row data."""
        if self.node_id not in block.replicas:
            raise StorageError(
                f"node {self.node_id} is not a replica target of "
                f"block {block.block_id}"
            )
        if rows.num_rows != block.num_rows:
            raise StorageError(
                f"block {block.block_id} expects {block.num_rows} rows, "
                f"got {rows.num_rows}"
            )
        self._replicas[block.block_id] = rows

    def has_replica(self, block_id: BlockId) -> bool:
        """True if this node stores the block."""
        return block_id in self._replicas

    def read_block(self, block: Block) -> Table:
        """Read a locally stored replica (short-circuit read)."""
        try:
            return self._replicas[block.block_id]
        except KeyError:
            raise StorageError(
                f"node {self.node_id} has no replica of block "
                f"{block.block_id}"
            ) from None

    def evict(self, block_id: BlockId) -> None:
        """Drop a replica if present."""
        self._replicas.pop(block_id, None)
