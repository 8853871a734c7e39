"""The shared-nothing parallel database (the paper's DB2 DPF stand-in).

Owns table metadata, distributes rows across workers with the private
internal hash function, fans parallel operations out to the workers, and
executes the *final* join of the DB-side algorithm with whichever
physical strategy the optimizer picked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import ClusterConfig
from repro.core.bloom import BloomFilter
from repro.edw.optimizer import DbJoinChoice, DbJoinStrategy
from repro.edw.partitioner import db_internal_partition
from repro.edw.worker import DbWorker, WorkerAccessStats
from repro.errors import CatalogError
from repro.kernels.partition import partition_table
from repro.relational.aggregates import merge_specs
from repro.relational.expressions import Predicate
from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.query.plan import join_aggregate, joined_unit_rows
from repro.query.query import HybridQuery


@dataclass(frozen=True)
class DbTableMeta:
    """Catalog entry for a database-resident table."""

    name: str
    schema: Schema
    distribute_on: str
    num_rows: int


@dataclass
class DbJoinRunStats:
    """Volume accounting of the in-database final join."""

    build_tuples: int = 0
    probe_tuples: int = 0
    join_output_tuples: int = 0
    result_rows: int = 0


@dataclass
class GlobalBloomResult:
    """A merged Bloom filter plus what building it cost."""

    bloom: BloomFilter
    index_only: bool
    rows_accessed: int
    bytes_accessed: float
    keys_added: int


class ParallelDatabase:
    """A cluster of :class:`DbWorker` partitions behind one catalog."""

    def __init__(self, cluster: Optional[ClusterConfig] = None):
        self.cluster = cluster or ClusterConfig()
        workers_per_server = max(
            1, self.cluster.db_workers // self.cluster.db_servers
        )
        self.workers = [
            DbWorker(worker_id, server_id=worker_id // workers_per_server)
            for worker_id in range(self.cluster.db_workers)
        ]
        self._catalog: Dict[str, DbTableMeta] = {}

    @property
    def num_workers(self) -> int:
        """Number of database workers."""
        return len(self.workers)

    # ------------------------------------------------------------------
    # DDL / loading
    # ------------------------------------------------------------------
    def create_table(self, name: str, table: Table,
                     distribute_on: str) -> DbTableMeta:
        """Load ``table``, hash-distributed on ``distribute_on``."""
        if name in self._catalog:
            raise CatalogError(f"database table already exists: {name!r}")
        table.schema.column(distribute_on)
        assignments = db_internal_partition(
            table.column(distribute_on), self.num_workers
        )
        partitions = partition_table(table, assignments, self.num_workers)
        for worker, partition in zip(self.workers, partitions):
            worker.store_partition(name, partition)
        meta = DbTableMeta(
            name=name,
            schema=table.schema,
            distribute_on=distribute_on,
            num_rows=table.num_rows,
        )
        self._catalog[name] = meta
        return meta

    def create_index(self, table_name: str, index_name: str,
                     columns: Sequence[str]) -> None:
        """Create a secondary index on every worker's partition."""
        self.table_meta(table_name)
        for worker in self.workers:
            worker.create_index(table_name, index_name, columns)

    def table_meta(self, name: str) -> DbTableMeta:
        """Catalog lookup."""
        try:
            return self._catalog[name]
        except KeyError:
            raise CatalogError(f"unknown database table: {name!r}") from None

    def register_partitioned_table(self, name: str,
                                   parts: Sequence[Table],
                                   distribute_on: str) -> DbTableMeta:
        """Register pre-partitioned rows as a table (derived tables)."""
        if name in self._catalog:
            raise CatalogError(f"database table already exists: {name!r}")
        if len(parts) != self.num_workers:
            raise CatalogError(
                f"expected {self.num_workers} partitions, got {len(parts)}"
            )
        for worker, part in zip(self.workers, parts):
            worker.store_partition(name, part)
        meta = DbTableMeta(
            name=name,
            schema=parts[0].schema,
            distribute_on=distribute_on,
            num_rows=sum(part.num_rows for part in parts),
        )
        self._catalog[name] = meta
        return meta

    def join_local(
        self,
        left_name: str,
        right_name: str,
        left_key: str,
        right_key: str,
        result_name: str,
        left_predicate: Optional[Predicate] = None,
        right_predicate: Optional[Predicate] = None,
        left_projection: Optional[Sequence[str]] = None,
        right_projection: Optional[Sequence[str]] = None,
    ) -> Tuple[DbTableMeta, DbJoinRunStats]:
        """An entirely in-database equi-join producing a derived table.

        This is the paper's answer to multi-table queries (Section 2):
        "we need to rely on the query optimizer in the database to
        decide on the right join orders, since queries are issued at the
        database side" — star-schema dimension joins run inside the EDW
        first, and the hybrid join then operates on the derived fact
        table.  Both sides are filtered, projected, repartitioned on the
        join key with the internal hash, and joined per worker.

        Output columns are the union of the two projections; collisions
        must be resolved by projecting/renaming beforehand.
        """
        from repro.relational.expressions import TruePredicate

        left_predicate = left_predicate or TruePredicate()
        right_predicate = right_predicate or TruePredicate()
        left_meta = self.table_meta(left_name)
        right_meta = self.table_meta(right_name)
        left_projection = list(left_projection or left_meta.schema.names)
        right_projection = list(right_projection or right_meta.schema.names)
        if left_key not in left_projection:
            left_projection.append(left_key)
        if right_key not in right_projection:
            right_projection.append(right_key)

        left_parts, _ = self.filter_project(
            left_name, left_predicate, left_projection
        )
        right_parts, _ = self.filter_project(
            right_name, right_predicate, right_projection
        )
        left_sides = self._repartition(left_parts, left_key)
        right_sides = self._repartition(right_parts, right_key)

        # The build side's key duplicates the probe side's foreign key in
        # the output; keep a single copy (the probe side's).  The
        # workers' joins run as the hybrid join's do, slot-keyed, and
        # come back as the workers' partitions.
        rhs_key_alias = "__rhs_join_key"
        right_sides = [side.rename({right_key: rhs_key_alias})
                       for side in right_sides]
        joined_parts = joined_unit_rows(
            list(zip(left_sides, right_sides)), left_key, rhs_key_alias,
            [name for name in right_sides[0].schema.names
             + left_sides[0].schema.names if name != rhs_key_alias])
        stats = DbJoinRunStats(
            build_tuples=sum(side.num_rows for side in right_sides),
            probe_tuples=sum(side.num_rows for side in left_sides),
            join_output_tuples=sum(part.num_rows for part in joined_parts),
        )
        meta = self.register_partitioned_table(
            result_name, joined_parts, distribute_on=left_key
        )
        stats.result_rows = meta.num_rows
        return meta, stats

    def gather_table(self, name: str) -> Table:
        """All rows of a table, concatenated (tests / reference runs)."""
        self.table_meta(name)
        return Table.concat(
            [worker.partition(name) for worker in self.workers]
        )

    # ------------------------------------------------------------------
    # Parallel operations
    # ------------------------------------------------------------------
    def filter_project(
        self, table_name: str, predicate: Predicate,
        projection: Sequence[str],
    ) -> Tuple[List[Table], List[WorkerAccessStats]]:
        """Apply local predicates + projection on every worker."""
        parts = []
        stats = []
        for worker in self.workers:
            part, worker_stats = worker.filter_project(
                table_name, predicate, projection
            )
            parts.append(part)
            stats.append(worker_stats)
        return parts, stats

    def build_global_bloom(
        self,
        table_name: str,
        predicate: Predicate,
        key_column: str,
        num_bits: int,
        num_hashes: int = 2,
        seed: int = 7,
    ) -> GlobalBloomResult:
        """BF_DB over the filtered join keys of every worker.

        This is the ``cal_filter`` → ``get_filter`` → ``combine_filter``
        pipeline from the paper's example SQL (Section 4.1.1).  The data
        plane keeps each worker's access — an index-only lookup when a
        covering index exists, a partition scan otherwise — and hashes
        all workers' keys into one filter with a single ``add``, which
        is bit for bit the OR of per-worker filters.  The time plane
        still prices per-worker builds plus the OR-merge
        (``bf_db_build``, from ``rows_accessed`` and ``keys_added``).
        """
        keys_and_stats = [
            worker.bloom_keys(table_name, predicate, key_column)
            for worker in self.workers
        ]
        bloom = BloomFilter(num_bits, num_hashes, seed)
        bloom.add(np.concatenate([keys for keys, _stats in keys_and_stats]))
        all_stats = [stats for _keys, stats in keys_and_stats]
        return GlobalBloomResult(
            bloom=bloom,
            index_only=all(stats.index_only for stats in all_stats),
            rows_accessed=sum(stats.rows_scanned for stats in all_stats),
            bytes_accessed=sum(stats.bytes_scanned for stats in all_stats),
            keys_added=sum(stats.rows_out for stats in all_stats),
        )

    # ------------------------------------------------------------------
    # The DB-side final join
    # ------------------------------------------------------------------
    def execute_hybrid_join(
        self,
        t_parts: List[Table],
        ingested_l_parts: List[Table],
        query: HybridQuery,
        choice: DbJoinChoice,
    ) -> Tuple[Table, DbJoinRunStats]:
        """Join filtered T′ partitions with ingested HDFS rows.

        ``ingested_l_parts`` are grouped by receiving DB worker — an
        arbitrary grouping from the network's point of view, since JEN
        does not know the database's internal hash (the paper's reason
        the DB side may have to reshuffle the data it just received).
        """
        if len(t_parts) != self.num_workers:
            raise CatalogError(
                f"expected {self.num_workers} T partitions, "
                f"got {len(t_parts)}"
            )
        if len(ingested_l_parts) != self.num_workers:
            raise CatalogError(
                f"expected {self.num_workers} ingested partitions, "
                f"got {len(ingested_l_parts)}"
            )
        # The result merges the workers' partials, and AVG cannot merge
        # (the query layer decomposes it), however the rows fall.
        merge_specs(query.aggregates)

        if choice.strategy is DbJoinStrategy.REPARTITION_BOTH:
            t_sides = self._repartition(t_parts, query.db_join_key)
            l_sides = self._repartition(ingested_l_parts, query.hdfs_join_key)
        elif choice.strategy is DbJoinStrategy.BROADCAST_HDFS_SIDE:
            full_l = Table.concat(ingested_l_parts)
            t_sides = t_parts
            l_sides = [full_l] * self.num_workers
        else:  # BROADCAST_DB_SIDE
            full_t = Table.concat(t_parts)
            t_sides = [full_t] * self.num_workers
            l_sides = ingested_l_parts
            if choice.strategy is not DbJoinStrategy.BROADCAST_DB_SIDE:
                raise CatalogError(f"unknown strategy {choice.strategy}")

        # One join over every worker's sides; a broadcast side is one
        # table on every worker, so it is stacked — and a broadcast
        # build side indexed — once.
        result, join_output_tuples = join_aggregate(
            list(zip(t_sides, l_sides)), query)
        stats = DbJoinRunStats(
            build_tuples=sum(side.num_rows for side in l_sides),
            probe_tuples=sum(side.num_rows for side in t_sides),
            join_output_tuples=join_output_tuples,
            result_rows=result.num_rows,
        )
        return result, stats

    def _repartition(self, parts: List[Table], key: str) -> List[Table]:
        """Redistribute row parts on ``key`` with the internal hash.

        Single-pass kernel: one sort + one gather instead of one
        full-table boolean filter per worker.
        """
        combined = Table.concat(parts)
        assignments = db_internal_partition(
            combined.column(key), self.num_workers
        )
        return partition_table(combined, assignments, self.num_workers)
