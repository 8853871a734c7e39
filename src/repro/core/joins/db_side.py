"""DB-side join, with or without a Bloom filter (paper Section 3.1).

The strategy every commercial hybrid system of the paper's era used
(PolyBase, HAWQ, SQL-H, Big Data SQL): filter the HDFS table remotely,
ship the survivors *into* the database, and join there.

Steps (Figure 1):

1. DB workers apply local predicates and projection on T; with the
   Bloom-filter variant they build BF_DB (index-only) and multicast it
   to the JEN workers.
2. JEN workers scan L, applying predicates, projection and (optionally)
   BF_DB, and stream the survivors to their paired DB workers — the
   grouped ingest pattern of Figure 5.
3. The database optimizer picks broadcast or repartition for the final
   join; because JEN cannot use the database's private partitioning
   hash, a repartition plan reshuffles the freshly ingested rows again.
4. Join, post-join predicate, group-by and aggregation run in the
   database; the result is already where the user wants it.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.joins.base import (
    JoinAlgorithm,
    JoinResult,
    JoinStats,
    register_algorithm,
)
from repro.edw.optimizer import choose_db_join_strategy
from repro.latemat import StitchStats, stitch_parts
from repro.relational.table import Table
from repro.sim.trace import Trace
from repro.query.query import HybridQuery


@register_algorithm
class DbSideJoin(JoinAlgorithm):
    """Ship filtered HDFS rows into the EDW and join there."""

    name = "db"

    def __init__(self, use_bloom: bool = False):
        self.use_bloom = use_bloom
        self.uses_db_bloom = use_bloom

    @property
    def display_name(self) -> str:
        """Paper-style label."""
        return "db(BF)" if self.use_bloom else "db"

    def run(self, warehouse, query: HybridQuery) -> JoinResult:
        costing = self._costing(warehouse)
        database = warehouse.database
        stats = JoinStats()
        trace = Trace(label=self.display_name)
        trace.add("startup", "latency", costing.startup_seconds(),
                  description="read_hdfs UDF, coordinator handshakes")

        # -- T' locally (overlaps the remote scan) -----------------------
        t_parts = self._run_db_filter(
            warehouse, query, costing, trace, stats,
            description="apply local predicates + projection on T",
        )

        # -- Optional BF_DB -----------------------------------------------
        db_bloom = None
        scan_gate = ["startup"]
        if self.use_bloom:
            db_bloom = self._run_bf_db(warehouse, query, costing, trace,
                                       stats)
            scan_gate = ["startup", "bf_db_send"]

        # -- Remote scan + grouped ingest ---------------------------------
        scan = self._run_hdfs_scan(
            warehouse, query, costing, trace, stats, scan_gate,
            db_bloom=db_bloom,
        )
        l_store, l_ship = self._latemat_store(
            query, scan.wire_tables, "hdfs"
        )
        ingested = _group_ingest(l_ship, database.num_workers)
        l_tuples = sum(part.num_rows for part in ingested)
        l_wire_bytes = self._wire_row_bytes(l_ship)
        stats.hdfs_tuples_to_db = l_tuples
        trace.add("hdfs_to_db", "transfer",
                  costing.db_ingest_seconds(l_tuples, l_wire_bytes),
                  streams_from=["hdfs_scan"],
                  description="JEN workers stream filtered L into paired "
                              "DB workers",
                  tuples=l_tuples,
                  volume_bytes=l_tuples * l_wire_bytes)
        shuffle_gate = ["hdfs_to_db"]
        if l_store is not None:
            # Grouped ingest has no hash alignment with the database's
            # private partitioning, so thin rows are pruned against the
            # global key set of T' — exact whatever join strategy the
            # optimizer picks below — before fetching payloads HDFS->EDW.
            t_keys = np.unique(np.concatenate([
                part.column(query.db_join_key) for part in t_parts
            ]))
            stitch_stats = StitchStats()
            ingested = stitch_parts(
                l_store, ingested, query.hdfs_join_key, t_keys,
                stitch_stats, side="l",
            )
            l_payload_bytes = l_store.payload_row_bytes()
            trace.add("payload_fetch_l", "transfer",
                      costing.payload_fetch_seconds(
                          stitch_stats.l_fetched_tuples, l_payload_bytes,
                          stitch_stats.l_amplification,
                          cross_cluster=True, to_db=True,
                      ),
                      streams_from=["hdfs_to_db"],
                      description="fetch surviving L payload rows into "
                                  "the database",
                      tuples=stitch_stats.l_fetched_tuples,
                      volume_bytes=(
                          stitch_stats.l_fetched_tuples * l_payload_bytes
                          * stitch_stats.l_amplification
                      ))
            shuffle_gate = ["payload_fetch_l"]

        # -- Optimizer choice + in-database join --------------------------
        t_tuples = sum(part.num_rows for part in t_parts)
        raw_t_wire = t_tuples * t_parts[0].row_bytes()
        raw_l_wire = sum(
            part.num_rows * part.row_bytes() for part in ingested
        )
        choice = choose_db_join_strategy(
            raw_t_wire, raw_l_wire, database.num_workers
        )
        stats.db_internal_shuffle_bytes = choice.internal_bytes
        trace.add("db_internal_shuffle", "db_shuffle",
                  costing.db_internal_shuffle_seconds(choice.internal_bytes),
                  after=["db_filter"],
                  streams_from=shuffle_gate,
                  description=f"in-database {choice.strategy.value} "
                              "(JEN cannot target the private hash)",
                  volume_bytes=choice.internal_bytes)

        result, join_stats = database.execute_hybrid_join(
            t_parts, ingested, query, choice
        )
        stats.join_output_tuples = join_stats.join_output_tuples
        stats.result_rows = join_stats.result_rows
        trace.add("db_join", "db_cpu",
                  costing.db_join_seconds(
                      join_stats.build_tuples + join_stats.probe_tuples,
                      join_stats.join_output_tuples,
                  ),
                  streams_from=["db_internal_shuffle"],
                  description="in-database hash join, post-join predicate, "
                              "group-by + aggregation",
                  tuples=join_stats.build_tuples + join_stats.probe_tuples)
        return self._finish(warehouse, query, result, stats, trace)


def _group_ingest(wire_tables: List[Table], num_db_workers: int
                  ) -> List[Table]:
    """Assign each JEN worker's output to one DB worker (Fig. 5 groups)."""
    per_db: List[List[Table]] = [[] for _ in range(num_db_workers)]
    for jen_worker, wire in enumerate(wire_tables):
        per_db[jen_worker % num_db_workers].append(wire)
    grouped: List[Table] = []
    empty_template = wire_tables[0].slice(0, 0)
    for pieces in per_db:
        grouped.append(Table.concat(pieces) if pieces else empty_template)
    return grouped
