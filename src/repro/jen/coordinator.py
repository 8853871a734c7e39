"""The JEN coordinator (paper Section 4.1).

Three responsibilities, reproduced directly:

1. manage the worker registry (which workers are up);
2. designate the worker that merges Bloom filters and final aggregates
   (the grouped DB-to-JEN endpoint mapping of Figure 5 is
   :func:`repro.net.transfer.grouped_assignment`);
3. resolve HDFS table metadata from HCatalog, fetch block locations
   from the NameNode, and hand out locality-aware block assignments.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import CatalogError
from repro.hdfs.filesystem import HdfsFileSystem, HdfsTableMeta
from repro.jen.scheduler import BlockAssignment, assign_blocks


class JenCoordinator:
    """Central metadata and connection broker for the JEN workers."""

    def __init__(self, filesystem: HdfsFileSystem, num_workers: int,
                 locality: bool = True):
        if num_workers <= 0:
            raise CatalogError("JEN needs at least one worker")
        self.filesystem = filesystem
        self.num_workers = num_workers
        self.locality = locality
        self._live_workers: Dict[int, bool] = {
            worker: True for worker in range(num_workers)
        }
        self._assignments: Dict[str, BlockAssignment] = {}

    # ------------------------------------------------------------------
    # Worker registry
    # ------------------------------------------------------------------
    def live_workers(self) -> List[int]:
        """Ids of workers currently up."""
        return [worker for worker, up in self._live_workers.items() if up]

    def mark_worker(self, worker_id: int, up: bool) -> None:
        """Record a worker joining or leaving."""
        if worker_id not in self._live_workers:
            raise CatalogError(f"unknown JEN worker {worker_id}")
        self._live_workers[worker_id] = up
        # Any cached assignment is invalid once membership changes.
        self._assignments.clear()

    def reassign_blocks(self, dead_worker: int, blocks
                        ) -> List[Tuple[int, List]]:
        """Redistribute a crashed worker's blocks over the survivors.

        Called mid-scan when a fault plan kills ``dead_worker``: its
        partial output is discarded, so *all* of its blocks (scanned and
        un-scanned alike) are dealt round-robin to the live workers.
        Returns ``(survivor_id, blocks)`` pairs, deterministically
        ordered, omitting survivors with nothing to do.
        """
        survivors = [worker for worker in self.live_workers()
                     if worker != dead_worker]
        if not survivors:
            raise CatalogError(
                f"no survivors to take over worker {dead_worker}'s blocks"
            )
        per_survivor: Dict[int, List] = {worker: [] for worker in survivors}
        for position, block in enumerate(blocks):
            per_survivor[survivors[position % len(survivors)]].append(block)
        return [(worker, assigned)
                for worker, assigned in per_survivor.items() if assigned]

    def speculative_worker(self, straggler: int) -> int:
        """The worker that runs a backup copy of a straggler's task.

        The least-loaded policy degenerates to "lowest live id that is
        not the straggler" here, because scan assignments are balanced;
        raises when the straggler is the only worker left.
        """
        for worker in self.live_workers():
            if worker != straggler:
                return worker
        raise CatalogError(
            f"no worker available to speculate for straggler {straggler}"
        )

    # ------------------------------------------------------------------
    # Metadata + scheduling
    # ------------------------------------------------------------------
    def table_meta(self, table_name: str) -> HdfsTableMeta:
        """HCatalog lookup on behalf of the DB2 workers."""
        return self.filesystem.table_meta(table_name)

    def plan_scan(self, table_name: str) -> BlockAssignment:
        """Block assignment for a scan of ``table_name`` (cached).

        Only live workers receive blocks; after a failure the plan is
        recomputed and blocks whose replicas sat on the dead node become
        remote reads on the survivors.
        """
        if table_name not in self._assignments:
            blocks = self.filesystem.table_blocks(table_name)
            live = self.live_workers()
            if not live:
                raise CatalogError("no live JEN workers")
            self._assignments[table_name] = assign_blocks(
                blocks, live, locality=self.locality
            )
        return self._assignments[table_name]

    def designated_worker(self) -> int:
        """The worker that merges Bloom filters and final aggregates."""
        live = self.live_workers()
        if not live:
            raise CatalogError("no live JEN workers")
        return live[0]
