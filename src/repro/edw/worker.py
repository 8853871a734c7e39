"""One shared-nothing database worker.

A worker owns a hash-distributed partition of each database table — a
slice of the table :class:`~repro.edw.database.ParallelDatabase`
stores, which also runs every worker's filter/project scan in one pass
— plus any secondary indexes built on it.  The operations mirror what
the paper's C UDFs drive inside DB2: local Bloom-filter builds
(index-only when a covering index exists), and applying a remote Bloom
filter to the partition.  Outgoing rows are
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
        access plan" (Section 5); the index hands its keys out in index
        order, which the filter, an OR of bits, does not see.  A
        predicate the index cannot evaluate alone (a negation, a UDF, a
        disjunction) scans the partition, and the stats say so.  The
        caller hashes every worker's keys into one filter
        (:meth:`ParallelDatabase.build_global_bloom`).
        """
        partition = self.partition(table_name)
        needed = list(predicate.columns()) + [key_column]
        index = self.find_covering_index(table_name, needed)
        if index is not None and index.evaluates(predicate):
            keys = index.lookup(predicate, key_column)
            return keys, WorkerAccessStats(
                rows_scanned=index.num_entries,
                index_only=True,
                rows_out=len(keys),
            )
        mask = predicate.evaluate(partition)
        keys = partition.column(key_column)[mask]
        stats = WorkerAccessStats(
            rows_scanned=partition.num_rows,
            rows_out=len(keys),
        )
        return keys, stats

    # ------------------------------------------------------------------
    # Outbound data
    # ------------------------------------------------------------------
    @staticmethod
    def apply_bloom(tables: Sequence[Table], key_column: str,
                    bloom: BloomFilter, observers: Tuple = ()
                    ) -> List[Table]:
        """Keep only rows whose key may be in ``bloom``, part by part.

        ``tables`` are every worker's parts (T′); one ``contains`` call
        tests all their keys, each of ``observers`` checks the mask, and
        each part keeps its slice of it.
        """
        tables = list(tables)
        keys = np.concatenate([table.column(key_column) for table in tables])
        mask = bloom.contains(keys)
        for observer in observers:
            observer.check_bloom_contains(bloom, keys, mask)
        bounds = np.cumsum([0] + [table.num_rows for table in tables])
        return [
            table.filter(mask[start:stop])
            for table, start, stop in zip(tables, bounds[:-1], bounds[1:])
        ]
