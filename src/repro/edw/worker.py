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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

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
    def bloom_keys(
        self,
        table_name: str,
        predicate: Predicate,
        key_column: str,
    ) -> Tuple[np.ndarray, WorkerAccessStats]:
        """The join keys of the filtered partition, for a Bloom build.

        Uses an index-only plan when a covering index exists — the paper
        builds an index on ``(corPred, indPred, joinKey)`` precisely to
        "enable calculations of Bloom filters on T using an index-only
        access plan" (Section 5).  The caller hashes every worker's keys
        into one filter (:meth:`ParallelDatabase.build_global_bloom`).
        """
        partition = self.partition(table_name)
        needed = list(predicate.columns()) + [key_column]
        index = self.find_covering_index(table_name, needed)
        if index is not None:
            try:
                rows = index.lookup_rows(predicate, partition)
                keys = index.entries_for_rows(key_column, rows)
                stats = WorkerAccessStats(
                    rows_scanned=index.num_entries,
                    bytes_scanned=float(
                        index.num_entries * index.entry_bytes(partition)
                    ),
                    index_only=True,
                    rows_out=len(keys),
                )
                return keys, stats
            except CatalogError:
                pass  # Fall back to a base-table scan.
        mask = predicate.evaluate(partition)
        keys = partition.column(key_column)[mask]
        stats = WorkerAccessStats(
            rows_scanned=partition.num_rows,
            bytes_scanned=float(partition.total_bytes()),
            rows_out=len(keys),
        )
        return keys, stats

    # ------------------------------------------------------------------
    # Outbound data
    # ------------------------------------------------------------------
    @staticmethod
    def apply_bloom(tables: Sequence[Table], key_column: str,
                    bloom: BloomFilter) -> List[Table]:
        """Keep only rows whose key may be in ``bloom``, part by part.

        ``tables`` are every worker's parts (T′); one ``contains`` call
        tests all their keys and each part keeps its slice of the mask.
        """
        tables = list(tables)
        mask = bloom.contains(np.concatenate(
            [table.column(key_column) for table in tables]))
        bounds = np.cumsum([0] + [table.num_rows for table in tables])
        return [
            table.filter(mask[start:stop])
            for table, start, stop in zip(tables, bounds[:-1], bounds[1:])
        ]
