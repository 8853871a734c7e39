"""A JEN worker: scan, process pipeline, shuffle partitioning, join.

One worker runs on each DataNode.  Its scan applies, in stream order,
exactly the process-thread pipeline of the paper's Figure 7: parse rows
(format-aware), evaluate local predicates, project, compute derived
columns, apply the database Bloom filter if one was pushed down, and
optionally populate the HDFS-side Bloom filter — all before the record
enters a send buffer for the shuffle.

The scan comes in two halves around the Bloom step
(:meth:`JenWorker.read_batch`, :meth:`JenWorker.finish_batch`) so the
engine can run that step once per query over every worker's join keys
(:func:`bloom_step`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bloom import BloomFilter, probe_and_insert
from repro.edw.partitioner import agreed_hash_partition
from repro.errors import JoinError
from repro.hdfs.blocks import Block
from repro.kernels.partition import partition_table
from repro.hdfs.filesystem import HdfsFileSystem, HdfsTableMeta
from repro.relational.expressions import Predicate
from repro.relational.table import Table
from repro.query.query import DerivedColumn, HybridQuery
from repro.testkit import invariants


@dataclass(frozen=True)
class ScanRequest:
    """What a JEN worker applies while scanning, in stream order.

    This is exactly the information the paper's ``read_hdfs`` UDF pushes
    down (Section 4.1.1): predicates, the projected columns, the
    database Bloom filter and the join-key column it applies to — plus
    the scan-time derived columns of the query layer.
    """

    predicate: Predicate
    projection: Tuple[str, ...]
    derived: Tuple[DerivedColumn, ...]
    wire_columns: Tuple[str, ...]
    join_key: Optional[str] = None

    @classmethod
    def from_query(cls, query: HybridQuery) -> "ScanRequest":
        """The scan request implied by a hybrid query."""
        return cls(
            predicate=query.hdfs_predicate,
            projection=tuple(query.hdfs_projection),
            derived=tuple(query.hdfs_derived),
            wire_columns=tuple(query.hdfs_wire_columns()),
            join_key=query.hdfs_join_key,
        )

    def apply_derivations(self, table: Table) -> Table:
        """Compute the scan-time derived columns."""
        for derived in self.derived:
            table = derived.apply(table)
        return table


@dataclass
class ScanStats:
    """What one worker's scan touched and produced."""

    rows_scanned: int = 0
    stored_bytes_scanned: float = 0.0
    rows_after_predicates: int = 0
    rows_after_bloom: int = 0
    local_blocks: int = 0
    remote_blocks: int = 0
    #: Rows a crashed worker had produced before dying — wasted work,
    #: kept out of the exactly-once counters above.
    rows_discarded: int = 0
    #: Blocks handed to survivors after a mid-scan crash.
    blocks_reassigned: int = 0

    def merge(self, other: "ScanStats") -> "ScanStats":
        """Combine stats across workers."""
        return ScanStats(
            rows_scanned=self.rows_scanned + other.rows_scanned,
            stored_bytes_scanned=(
                self.stored_bytes_scanned + other.stored_bytes_scanned
            ),
            rows_after_predicates=(
                self.rows_after_predicates + other.rows_after_predicates
            ),
            rows_after_bloom=self.rows_after_bloom + other.rows_after_bloom,
            local_blocks=self.local_blocks + other.local_blocks,
            remote_blocks=self.remote_blocks + other.remote_blocks,
            rows_discarded=self.rows_discarded + other.rows_discarded,
            blocks_reassigned=(
                self.blocks_reassigned + other.blocks_reassigned
            ),
        )


@dataclass
class ScanBatch:
    """One worker's blocks, read and gathered, before the Bloom step.

    ``rows`` holds the projected columns of every predicate survivor in
    block order — derived already when the Bloom filters are keyed on a
    derived column.  ``block_rows[i]`` and ``selected[i]`` are block
    ``i``'s row count before and after the predicate, what the
    per-block observers are replayed from.
    """

    rows: Table
    block_rows: List[int]
    selected: List[int]
    stats: ScanStats
    scan_row_bytes: float


def _derive_first(request: ScanRequest) -> bool:
    """Deriving after the Bloom step touches only its survivors; the
    order flips only when the filter is keyed on a derived column."""
    return any(derived.name == request.join_key
               for derived in request.derived)


def bloom_step(batches: Sequence[ScanBatch], request: ScanRequest,
               db_bloom: Optional[BloomFilter] = None,
               hdfs_bloom: Optional[BloomFilter] = None,
               ) -> Optional[np.ndarray]:
    """The scan's Bloom step, one call over all the batches' join keys.

    Probes BF_DB when one was pushed down — and inserts its survivors
    into BF_H when one is being built (the zigzag two-way step);
    without BF_DB, BF_H takes every key.  Returns the keep mask over
    the batches' concatenated rows, or ``None`` when nothing filters.
    """
    if request.join_key is None or (db_bloom is None and hdfs_bloom is None):
        return None
    keys = np.concatenate(
        [batch.rows.column(request.join_key) for batch in batches])
    if db_bloom is None:
        hdfs_bloom.add(keys)
        return None
    if hdfs_bloom is None:
        return db_bloom.contains(keys)
    return probe_and_insert(keys, db_bloom, hdfs_bloom)


class JenWorker:
    """One multi-threaded worker process of the JEN engine."""

    def __init__(self, worker_id: int, filesystem: HdfsFileSystem):
        self.worker_id = worker_id
        self.filesystem = filesystem

    def scan_filter_project(
        self,
        meta: HdfsTableMeta,
        blocks: Sequence[Block],
        request: ScanRequest,
        db_bloom: Optional[BloomFilter] = None,
        local_bloom: Optional[BloomFilter] = None,
        faults=None,
        observers: Tuple = (),
    ) -> Tuple[Table, ScanStats]:
        """Scan assigned blocks through the full process pipeline.

        Returns the wire-ready table (projection plus derived columns,
        all filters applied) and the scan statistics.  If ``local_bloom``
        is given, the join keys that survive are inserted into it.  This
        is the one-worker composition of :meth:`read_batch`,
        :func:`bloom_step` and :meth:`finish_batch` (the approximate
        tier's sampled blocks); the distributed scan runs the Bloom step
        once over every worker's batch instead.  ``observers`` go to
        :meth:`finish_batch`.
        """
        batch = self.read_batch(meta, blocks, request, faults=faults)
        keep = bloom_step([batch], request, db_bloom, local_bloom)
        wire = self.finish_batch(batch, request, keep, observers=observers)
        return wire, batch.stats

    def read_batch(
        self,
        meta: HdfsTableMeta,
        blocks: Sequence[Block],
        request: ScanRequest,
        faults=None,
    ) -> ScanBatch:
        """Read the assigned blocks and gather their predicate survivors.

        The block list is the unit of the data plane.  Per block only
        the read, the locality and row/byte counts and the predicate —
        kept as a selection vector — happen; the projected columns are
        then gathered once over the whole batch, so later numpy calls
        see a worker's surviving rows, not one block's.

        ``faults`` is an optional hook with a ``before_block(worker_id,
        index, stats)`` method, consulted before every block read; the
        fault injector uses it to kill the worker mid-scan (by raising
        out of the loop with the partial stats attached — rows, bytes
        and block counts complete up to that block; the unprocessed
        batch dies with the worker).
        """
        storage_format = meta.storage_format()
        scan_row_bytes = storage_format.scan_bytes_per_row(
            meta.schema, list(request.projection)
        )
        stats = ScanStats()
        tables: List[Table] = []
        selections: List[np.ndarray] = []
        for index, block in enumerate(blocks):
            if faults is not None:
                faults.before_block(self.worker_id, index, stats)
            local = self.filesystem.datanodes[self.worker_id].has_replica(
                block.block_id
            ) if self.worker_id < len(self.filesystem.datanodes) else False
            rows = self.filesystem.read_block(
                block,
                preferred_node=self.worker_id if local else None,
            )
            if local:
                stats.local_blocks += 1
            else:
                stats.remote_blocks += 1
            stats.rows_scanned += rows.num_rows
            stats.stored_bytes_scanned += rows.num_rows * scan_row_bytes
            selection = np.flatnonzero(request.predicate.evaluate(rows))
            stats.rows_after_predicates += selection.size
            tables.append(rows)
            selections.append(selection)

        block_rows = [rows.num_rows for rows in tables]
        selected = [selection.size for selection in selections]
        if not tables:
            # No blocks assigned: an empty slice of the table schema
            # runs through the pipeline to give the empty wire table.
            sample = self.filesystem.table_blocks(meta.name)[0]
            tables = [self.filesystem.read_block(sample).slice(0, 0)]
            selections = [np.empty(0, dtype=np.intp)]
        rows = Table.gather_concat(tables, selections, request.projection)
        if _derive_first(request):
            rows = request.apply_derivations(rows)
        return ScanBatch(rows, block_rows, selected, stats, scan_row_bytes)

    @staticmethod
    def finish_batch(batch: ScanBatch, request: ScanRequest,
                     keep: Optional[np.ndarray] = None,
                     observers: Tuple = ()) -> Table:
        """Everything after the Bloom step; returns the wire table.

        ``keep`` is this batch's slice of the Bloom step's mask
        (``None`` when no filter was probed).  The survivors are
        gathered once, derived on and projected to the wire columns,
        and ``batch.stats.rows_after_bloom`` is set.

        The ``observers`` are then fed from the batch's block offsets,
        block by block and in their order: ``on_scan_block(rows,
        stored_bytes, after_predicates, after_bloom, bloom_applied,
        keys)``, ``keys`` being the block's surviving join keys
        (``None`` when the wire has no join key).
        """
        rows = batch.rows
        kept = batch.selected
        if keep is not None:
            rows = rows.filter(keep)
            # Survivors per block: the running survivor count read at
            # the block offsets (unlike np.add.reduceat, right for an
            # empty selection too).
            running = np.concatenate(([0], np.cumsum(keep)))
            kept = np.diff(running[np.cumsum([0] + kept)]).tolist()
        if not _derive_first(request):
            rows = request.apply_derivations(rows)
        wire = rows.project(list(request.wire_columns))
        batch.stats.rows_after_bloom = wire.num_rows
        if not observers:
            return wire

        # One block per call (the heavy-hitter detector prunes per call;
        # the adaptive context may raise SwitchSignal to end the scan).
        keys = (wire.column(request.join_key)
                if request.join_key in wire.schema.names else None)
        start = 0
        for num_rows, selected, count in zip(batch.block_rows,
                                             batch.selected, kept):
            block_keys = None if keys is None else keys[start:start + count]
            start += count
            for observer in observers:
                observer.on_scan_block(
                    num_rows, num_rows * batch.scan_row_bytes,
                    selected, count, keep is not None, block_keys,
                )
        return wire

    @staticmethod
    def hybrid_shuffle_assignments(
        table: Table, key: str, num_workers: int,
        hot_keys, sender_offset: int = 0,
    ) -> Tuple[np.ndarray, int]:
        """Hybrid routing: spread hot keys, agreed-hash the cold tail.

        Rows of a detected hot key are dealt round-robin across that
        key's bounded destination set — ``fanout`` consecutive workers
        starting at the key's agreed-hash home — with different senders
        starting their deal at different offsets; every other row keeps
        the agreed hash.  Each hot row still lands on exactly *one*
        worker — the matching probe-side rows are duplicated to the
        same destination set
        (:func:`repro.core.joins.repartition._route_db_rows`), which is
        what keeps every (l, t) pair produced exactly once.

        ``hot_keys`` is a :class:`repro.skew.HotKeySet`.  Returns
        ``(assignments, hot_rows)``: one destination per row, and how
        many rows left the agreed-hash route.
        """
        keys = table.column(key)
        assignments = agreed_hash_partition(keys, num_workers)
        dest_lists = hot_keys.destination_lists(
            num_workers, agreed_hash_partition
        )
        hot_rows = 0
        copied = False
        for hot_key, dests in zip(hot_keys.keys, dest_lists):
            index = np.flatnonzero(keys == hot_key)
            if index.size == 0:
                continue
            if not copied:
                assignments = assignments.copy()
                copied = True
            assignments[index] = dests[
                (sender_offset + np.arange(index.size)) % dests.size
            ]
            hot_rows += int(index.size)
        return assignments, hot_rows

    @staticmethod
    def partition_for_exchange(
        wire_tables: Sequence[Table], key: str, num_workers: int,
        hot_keys=None,
    ) -> Tuple[List[Table], np.ndarray, int]:
        """Route every sender's wire table and split them in one pass.

        Senders contribute destination assignments only (the agreed
        hash, or each sender's hybrid routing when ``hot_keys`` is
        non-empty); their rows are concatenated once and partitioned
        once.  The partition kernel's stable sort by destination over
        the sender-ordered concatenation leaves each destination's rows
        grouped by sender, in sender order — row for row what
        concatenating per-sender partitions gives.

        Returns ``(per_destination, routed, hot_rows)``:
        ``routed[sender, destination]`` counts the rows sender addressed
        to destination, so message ``(sender, destination)`` is rows
        ``routed[:sender, destination].sum()`` onwards of
        ``per_destination[destination]``.
        """
        if not wire_tables:
            raise JoinError("shuffle needs at least one sender")
        hybrid = hot_keys is not None and len(hot_keys) > 0
        hot_rows = 0
        # Destinations travel in the narrowest dtype that holds them —
        # what the partition kernel sorts on anyway.  As int64 they
        # would be the exchange's largest array, and megabyte-sized
        # temporaries are fresh pages on every query (the allocator
        # returns them to the system in between; docs/performance.md).
        narrow = np.min_scalar_type(num_workers - 1)
        per_sender = []
        for sender, wire in enumerate(wire_tables):
            if hybrid:
                assignments, sender_hot = \
                    JenWorker.hybrid_shuffle_assignments(
                        wire, key, num_workers, hot_keys,
                        sender_offset=sender,
                    )
                hot_rows += sender_hot
            else:
                assignments = agreed_hash_partition(
                    wire.column(key), num_workers
                )
            per_sender.append(assignments.astype(narrow))
        routed = np.stack([
            np.bincount(assignments, minlength=num_workers)
            for assignments in per_sender
        ])
        combined = Table.concat(wire_tables)
        per_destination = partition_table(
            combined, np.concatenate(per_sender), num_workers
        )
        if invariants.checking_enabled():
            if hybrid:
                invariants.check_hybrid_partition(
                    combined, key, per_destination, num_workers,
                    agreed_hash_partition, hot_keys.keys,
                    fanouts=hot_keys.fanouts,
                )
            else:
                invariants.check_hash_partition(
                    combined, key, per_destination, num_workers,
                    agreed_hash_partition,
                )
        return per_destination, routed, hot_rows
