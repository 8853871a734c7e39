"""A JEN worker: scan, process pipeline, shuffle partitioning, join.

One worker runs on each DataNode.  Its scan applies, in stream order,
exactly the process-thread pipeline of the paper's Figure 7: parse rows
(format-aware), evaluate local predicates, project, compute derived
columns, apply the database Bloom filter if one was pushed down, and
optionally populate the HDFS-side Bloom filter — all before the record
enters a send buffer for the shuffle.

The predicate runs once over the blocks a scan reads — for the
distributed scan, once over the whole file (:class:`FileSelection`);
the scan then comes in two halves: :meth:`JenWorker.read_batch` reads
a task's blocks — locality, rerouting, fault hook and counts stay per
block — and :func:`finish_scan` gathers every task's survivors and
runs the Bloom step, derive and projection once per query.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

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


@dataclass(frozen=True)
class FileSelection:
    """The pushed-down predicate's survivors over blocks of one HDFS file.

    Every block is a row range of one file table, so a block's
    predicate survivors are file row ids: ``rows`` holds them, and
    those of block ``b`` are ``rows[bounds[i]:bounds[i + 1]]`` with
    ``i = position[b.block_id]``.
    """

    table: Table
    rows: np.ndarray
    bounds: List[int]
    position: Dict[int, int]
    #: Stored bytes a scan reads per row (the format's projected width).
    scan_row_bytes: float

    @classmethod
    def evaluate(cls, filesystem: HdfsFileSystem, meta: HdfsTableMeta,
                 request: ScanRequest) -> "FileSelection":
        """Evaluate ``request.predicate`` once over the whole file of
        ``meta`` — what the distributed scan, which reads every block,
        uses.  Each block's survivors are cut out of the file's with
        one ``searchsorted`` against the block bounds."""
        table = filesystem.file_table(meta.name)
        blocks = filesystem.table_blocks(meta.name)
        rows = np.flatnonzero(request.predicate.evaluate(table))
        edges = [block.start_row for block in blocks] + [table.num_rows]
        return cls._of(table, rows, np.searchsorted(rows, edges).tolist(),
                       blocks, meta, request)

    @classmethod
    def over_blocks(cls, filesystem: HdfsFileSystem, meta: HdfsTableMeta,
                    request: ScanRequest,
                    blocks: Sequence[Block]) -> "FileSelection":
        """Evaluate ``request.predicate`` over the rows of ``blocks``
        only, block by block — for a scan that reads a few of the
        file's blocks (a one-worker scan, a sampled block)."""
        table = filesystem.file_table(meta.name)
        survivors = []
        for block in blocks:
            ids = np.flatnonzero(request.predicate.evaluate(
                table.slice(block.start_row, block.end_row)))
            ids += block.start_row
            survivors.append(ids)
        rows = np.concatenate(survivors or [np.empty(0, dtype=np.intp)])
        bounds = accumulate((ids.size for ids in survivors), initial=0)
        return cls._of(table, rows, list(bounds), blocks, meta, request)

    @classmethod
    def _of(cls, table: Table, rows: np.ndarray, bounds: List[int],
            blocks: Sequence[Block], meta: HdfsTableMeta,
            request: ScanRequest) -> "FileSelection":
        return cls(
            table=table,
            rows=rows,
            bounds=bounds,
            position={block.block_id: index
                      for index, block in enumerate(blocks)},
            scan_row_bytes=meta.storage_format().scan_bytes_per_row(
                meta.schema, list(request.projection)),
        )

    def span(self, block: Block) -> Tuple[int, int]:
        """Where ``block``'s survivors sit in :attr:`rows`."""
        index = self.position[block.block_id]
        return self.bounds[index], self.bounds[index + 1]


@dataclass
class ScanBatch:
    """One task's blocks, read, before the query's one gather.

    ``spans[i]`` is block ``i``'s survivors in the
    :class:`FileSelection` and ``block_rows[i]`` its row count, what
    the per-block observers are replayed from.
    """

    spans: List[Tuple[int, int]]
    block_rows: List[int]
    stats: ScanStats


def _derive_first(request: ScanRequest) -> bool:
    """Deriving after the Bloom step touches only its survivors; the
    order flips only when the filter is keyed on a derived column."""
    return any(derived.name == request.join_key
               for derived in request.derived)


def bloom_step(keys: np.ndarray, db_bloom: Optional[BloomFilter] = None,
               hdfs_bloom: Optional[BloomFilter] = None,
               ) -> Optional[np.ndarray]:
    """The scan's Bloom step, one call over the query's join keys.

    Probes BF_DB when one was pushed down — and inserts its survivors
    into BF_H when one is being built (the zigzag two-way step);
    without BF_DB, BF_H takes every key.  Returns the keep mask over
    ``keys``, or ``None`` when nothing filters.
    """
    if db_bloom is None:
        if hdfs_bloom is not None:
            hdfs_bloom.add(keys)
        return None
    if hdfs_bloom is None:
        return db_bloom.contains(keys)
    return probe_and_insert(keys, db_bloom, hdfs_bloom)


def finish_scan(selection: FileSelection, batches: Sequence[ScanBatch],
                request: ScanRequest,
                db_bloom: Optional[BloomFilter] = None,
                hdfs_bloom: Optional[BloomFilter] = None,
                observers: Tuple = ()) -> List[Table]:
    """Everything after the block reads, once over every batch.

    One ``take`` per projected column gathers the batches' survivors,
    in batch and block order, out of the file table; then one Bloom
    step (:func:`bloom_step`), one filter, the derivations and the
    projection to the wire columns.  Returns each batch's wire table —
    a zero-copy slice of the result — and sets its
    ``stats.rows_after_bloom``.

    The ``observers`` are then fed block by block, in batch order:
    ``on_scan_block(rows, stored_bytes, after_predicates, after_bloom,
    bloom_applied, keys)``, ``keys`` being the block's surviving join
    keys (``None`` when the wire has no join key).
    """
    spans = [span for batch in batches for span in batch.spans]
    ids = np.concatenate(
        [selection.rows[lo:hi] for lo, hi in spans]
        or [selection.rows[:0]])
    rows = selection.table.project(request.projection).take(ids)
    derive_first = _derive_first(request)
    if derive_first:
        rows = request.apply_derivations(rows)
    keep = None
    if request.join_key is not None:
        keep = bloom_step(rows.column(request.join_key), db_bloom,
                          hdfs_bloom)
    selected = [hi - lo for lo, hi in spans]
    # Where each block's rows start: in the gathered rows, then, past
    # the Bloom step, in the wire.
    offsets = list(accumulate(selected, initial=0))
    if keep is not None:
        survivors = np.flatnonzero(keep)
        rows = rows.take(survivors)
        offsets = np.searchsorted(survivors, offsets).tolist()
    if not derive_first:
        rows = request.apply_derivations(rows)
    wire = rows.project(list(request.wire_columns))

    wires = []
    block = 0
    for batch in batches:
        start, stop = offsets[block], offsets[block + len(batch.spans)]
        block += len(batch.spans)
        wires.append(wire.slice(start, stop))
        batch.stats.rows_after_bloom = stop - start
    if observers:
        # One block per call (the heavy-hitter detector prunes per
        # call; the adaptive context may raise SwitchSignal to end the
        # scan).
        keys = (wire.column(request.join_key)
                if request.join_key in wire.schema.names else None)
        block_rows = [count for batch in batches
                      for count in batch.block_rows]
        for index, (num_rows, count) in enumerate(zip(block_rows, selected)):
            start, stop = offsets[index], offsets[index + 1]
            block_keys = None if keys is None else keys[start:stop]
            for observer in observers:
                observer.on_scan_block(
                    num_rows, num_rows * selection.scan_row_bytes,
                    count, stop - start, keep is not None, block_keys,
                )
    return wires


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
        is the one-worker composition of :meth:`read_batch` and
        :func:`finish_scan` over a selection of ``blocks`` alone (the
        approximate tier scans its sampled blocks with it, one at a
        time); the distributed scan evaluates the whole file once and
        finishes every task's batch in one call instead.  ``observers``
        go to :func:`finish_scan`.
        """
        selection = FileSelection.over_blocks(self.filesystem, meta,
                                              request, blocks)
        batch = self.read_batch(blocks, selection, faults=faults)
        [wire] = finish_scan(selection, [batch], request, db_bloom,
                             local_bloom, observers)
        return wire, batch.stats

    def read_batch(
        self,
        blocks: Sequence[Block],
        selection: FileSelection,
        faults=None,
    ) -> ScanBatch:
        """Read the assigned blocks and count their predicate survivors.

        The block list is the unit of locality and fault handling: per
        block only the read (local, or rerouted to another replica),
        the row/byte counts and the block's survivor count out of
        ``selection`` happen; the rows themselves are gathered once
        per query by :func:`finish_scan`.

        ``faults`` is an optional hook with a ``before_block(worker_id,
        index, stats)`` method, consulted before every block read; the
        fault injector uses it to kill the worker mid-scan (by raising
        out of the loop with the partial stats attached — rows, bytes,
        predicate survivors and block counts complete up to that
        block; the unprocessed batch dies with the worker).
        """
        stats = ScanStats()
        spans: List[Tuple[int, int]] = []
        block_rows: List[int] = []
        datanodes = self.filesystem.datanodes
        datanode = (datanodes[self.worker_id]
                    if self.worker_id < len(datanodes) else None)
        for index, block in enumerate(blocks):
            if faults is not None:
                faults.before_block(self.worker_id, index, stats)
            local = (datanode is not None
                     and datanode.has_replica(block.block_id))
            # The rows come from the selection; the read stays for its
            # locality, its StorageError on a block with no replica
            # left and its count (hdfs.read_block.calls).
            rows = self.filesystem.read_block(
                block,
                preferred_node=self.worker_id if local else None,
            ).num_rows
            if local:
                stats.local_blocks += 1
            else:
                stats.remote_blocks += 1
            lo, hi = selection.span(block)
            stats.rows_scanned += rows
            stats.stored_bytes_scanned += rows * selection.scan_row_bytes
            stats.rows_after_predicates += hi - lo
            spans.append((lo, hi))
            block_rows.append(rows)
        return ScanBatch(spans, block_rows, stats)

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
