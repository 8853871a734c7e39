"""The NameNode: file-to-block mapping and replica placement.

Placement follows the classic HDFS policy in spirit: the first replica
round-robins across DataNodes (there is no single "writer" node in our
bulk loads) and each additional replica goes to a distinct node chosen
deterministically from the block id, so layouts are reproducible across
runs and tests.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple

from repro.errors import StorageError
from repro.hdfs.blocks import Block, BlockId


class NameNode:
    """Block metadata authority for one simulated HDFS instance."""

    def __init__(self, num_datanodes: int, replication: int = 2):
        if num_datanodes <= 0:
            raise StorageError("need at least one DataNode")
        if not 1 <= replication <= num_datanodes:
            raise StorageError(
                f"replication {replication} impossible with "
                f"{num_datanodes} DataNodes"
            )
        self.num_datanodes = num_datanodes
        self.replication = replication
        self._files: Dict[str, List[Block]] = {}
        self._next_block_id = itertools.count()
        self._first_replica = itertools.count()

    def allocate_blocks(
        self, path: str, row_counts: List[int], bytes_per_row: float
    ) -> List[Block]:
        """Create block metadata for a new file of the given row layout."""
        if path in self._files:
            raise StorageError(f"file already exists: {path!r}")
        blocks: List[Block] = []
        start = 0
        for rows in row_counts:
            block_id = next(self._next_block_id)
            blocks.append(
                Block(
                    block_id=block_id,
                    path=path,
                    start_row=start,
                    num_rows=rows,
                    stored_bytes=rows * bytes_per_row,
                    replicas=self._place_replicas(block_id),
                )
            )
            start += rows
        self._files[path] = blocks
        return blocks

    def _place_replicas(self, block_id: BlockId) -> Tuple[int, ...]:
        first = next(self._first_replica) % self.num_datanodes
        replicas = [first]
        # Deterministic spread for the remaining replicas: stride derived
        # from the block id, never colliding with already-chosen nodes.
        stride = 1 + (block_id * 2654435761) % (self.num_datanodes - 1) \
            if self.num_datanodes > 1 else 0
        node = first
        while len(replicas) < self.replication:
            node = (node + stride) % self.num_datanodes
            if node not in replicas:
                replicas.append(node)
            else:
                node = (node + 1) % self.num_datanodes
        return tuple(replicas)

    def blocks(self, path: str) -> List[Block]:
        """All blocks of a file, in row order."""
        try:
            return list(self._files[path])
        except KeyError:
            raise StorageError(f"no such file: {path!r}") from None
