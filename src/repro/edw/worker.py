"""One shared-nothing database worker.

A worker owns a hash-distributed partition of each database table plus
any secondary indexes built on it.  The operations mirror what the
paper's C UDFs drive inside DB2: local filter/project scans, local
Bloom-filter builds (index-only when a covering index exists), and
applying a remote Bloom filter to the partition.  Outgoing rows are
routed with the agreed hash function by the exchange itself
(:func:`repro.core.joins.repartition._route_db_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.core.bloom import BloomFilter
from repro.edw.index import SecondaryIndex
from repro.errors import CatalogError
from repro.relational.expressions import Predicate
from repro.relational.table import Table


@dataclass
class WorkerAccessStats:
    """What one worker operation touched (for the cost layer)."""

    rows_scanned: int = 0
    bytes_scanned: float = 0.0
    index_only: bool = False
    rows_out: int = 0


class DbWorker:
    """A single database partition server (one of the paper's 30)."""

    def __init__(self, worker_id: int, server_id: int):
        self.worker_id = worker_id
        self.server_id = server_id
        self._partitions: Dict[str, Table] = {}
        self._indexes: Dict[str, Dict[str, SecondaryIndex]] = {}

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------
    def store_partition(self, table_name: str, partition: Table) -> None:
        """Install this worker's partition of a table."""
        if table_name in self._partitions:
            raise CatalogError(
                f"worker {self.worker_id} already stores {table_name!r}"
            )
        self._partitions[table_name] = partition
        self._indexes.setdefault(table_name, {})

    def partition(self, table_name: str) -> Table:
        """This worker's partition of ``table_name``."""
        try:
            return self._partitions[table_name]
        except KeyError:
            raise CatalogError(
                f"worker {self.worker_id} has no partition of "
                f"{table_name!r}"
            ) from None

    def create_index(self, table_name: str, index_name: str,
                     columns: Sequence[str]) -> SecondaryIndex:
        """Build a secondary index on the local partition."""
        partition = self.partition(table_name)
        index = SecondaryIndex(index_name, partition, columns)
        self._indexes[table_name][index_name] = index
        return index

    def find_covering_index(self, table_name: str,
                            columns: Sequence[str]
                            ) -> Optional[SecondaryIndex]:
        """An index materialising all ``columns``, if any."""
        for index in self._indexes.get(table_name, {}).values():
            if index.covers(columns):
                return index
        return None

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------
    def filter_project(
        self, table_name: str, predicate: Predicate,
        projection: Sequence[str],
    ) -> Tuple[Table, WorkerAccessStats]:
        """Local predicates plus projection over the partition."""
        partition = self.partition(table_name)
        mask = predicate.evaluate(partition)
        result = partition.filter(mask).project(list(projection))
        stats = WorkerAccessStats(
            rows_scanned=partition.num_rows,
            bytes_scanned=float(partition.total_bytes()),
            rows_out=result.num_rows,
        )
        return result, stats

    # ------------------------------------------------------------------
    # Bloom filters (the paper's cal_filter/get_filter pipeline)
    # ------------------------------------------------------------------
    def build_local_bloom(
        self,
        table_name: str,
        predicate: Predicate,
        key_column: str,
        num_bits: int,
        num_hashes: int,
        seed: int,
    ) -> Tuple[BloomFilter, WorkerAccessStats]:
        """Bloom filter over the join keys of the filtered partition.

        Uses an index-only plan when a covering index exists — the paper
        builds an index on ``(corPred, indPred, joinKey)`` precisely to
        "enable calculations of Bloom filters on T using an index-only
        access plan" (Section 5).
        """
        partition = self.partition(table_name)
        needed = list(predicate.columns()) + [key_column]
        index = self.find_covering_index(table_name, needed)
        bloom = BloomFilter(num_bits, num_hashes, seed)
        if index is not None:
            try:
                rows = index.lookup_rows(predicate, partition)
                keys = index.entries_for_rows(key_column, rows)
                bloom.add(keys)
                stats = WorkerAccessStats(
                    rows_scanned=index.num_entries,
                    bytes_scanned=float(
                        index.num_entries * index.entry_bytes(partition)
                    ),
                    index_only=True,
                    rows_out=len(keys),
                )
                return bloom, stats
            except CatalogError:
                pass  # Fall back to a base-table scan.
        mask = predicate.evaluate(partition)
        keys = partition.column(key_column)[mask]
        bloom.add(keys)
        stats = WorkerAccessStats(
            rows_scanned=partition.num_rows,
            bytes_scanned=float(partition.total_bytes()),
            rows_out=len(keys),
        )
        return bloom, stats

    # ------------------------------------------------------------------
    # Outbound data
    # ------------------------------------------------------------------
    @staticmethod
    def apply_bloom(table: Table, key_column: str,
                    bloom: BloomFilter) -> Table:
        """Keep only rows whose key may be in ``bloom``."""
        mask = bloom.contains(table.column(key_column))
        return table.filter(mask)

    @staticmethod
    def encoded_export_bytes(parts: Sequence[Table]) -> int:
        """Bytes the outgoing partitions weigh in the compact wire codec.

        Late materialization exports thin ``(key, rowid)`` tables as
        codec frames; this measures what actually leaves the worker so
        the accounting layer can report honest export volumes.
        """
        from repro.kernels.wirecodec import encoded_table_bytes

        return sum(
            encoded_table_bytes(part) for part in parts if part.num_rows
        )
