"""The DB-side zigzag variant — the strawman the paper rejects.

Section 3.4 closes with: "a variant version of the zigzag join algorithm
which executes the final join on the database side will not perform
well, because scanning the HDFS table twice, without the help of
indexes, is expected to introduce significant overhead."

This module implements exactly that variant so the claim can be
verified rather than assumed (see the ``ablation_zigzag_site``
experiment):

1. DB workers filter/project T, build BF_DB, multicast it.
2. JEN workers scan L once, applying predicates + BF_DB, *only* to build
   BF_H — nothing is shuffled or retained (the join will not happen
   here, and JEN has no indexes to avoid the later re-read).
3. BF_H prunes T′ in the database (cheap, indexed).
4. JEN workers scan L a *second* time, applying predicates + BF_DB
   again, and ship the survivors into the database.
5. The database joins T″ with the ingested rows and aggregates.

Data movement is exactly as frugal as the HDFS-side zigzag join — both
directions are Bloom-filtered — but the second full scan of L is pure
overhead, which is why the paper's zigzag executes the final join where
the big data already is.
"""

from __future__ import annotations

from repro.core.joins.base import (
    JoinAlgorithm,
    JoinResult,
    JoinStats,
    register_algorithm,
)
import numpy as np

from repro.core.joins.db_side import _group_ingest
from repro.edw.optimizer import choose_db_join_strategy
from repro.edw.worker import DbWorker
from repro.latemat import StitchStats, stitch_parts
from repro.sim.trace import Trace
from repro.query.query import HybridQuery


@register_algorithm
class ZigzagDbJoin(JoinAlgorithm):
    """Two-way Bloom filters, but the final join runs in the EDW."""

    name = "zigzag-db"
    uses_db_bloom = True
    uses_hdfs_bloom = True

    def run(self, warehouse, query: HybridQuery) -> JoinResult:
        costing = self._costing(warehouse)
        database = warehouse.database
        jen = warehouse.jen
        stats = JoinStats()
        trace = Trace(label=self.name)
        trace.add("startup", "latency", costing.startup_seconds(),
                  description="UDF invocation, DB<->JEN connections")

        # -- T' and BF_DB --------------------------------------------------
        t_parts = self._run_db_filter(
            warehouse, query, costing, trace, stats,
            description="apply local predicates + projection on T",
        )
        db_bloom = self._run_bf_db(warehouse, query, costing, trace, stats)

        # -- First HDFS scan: only to build BF_H ---------------------------
        first_scan = self._run_hdfs_scan(
            warehouse, query, costing, trace, stats,
            gate=["startup", "bf_db_send"],
            db_bloom=db_bloom,
            build_hdfs_bloom=True,
        )
        hdfs_bloom = first_scan.global_bloom()
        trace.add("bf_h_merge", "bloom",
                  costing.bloom_merge_intra_jen_seconds(),
                  after=["hdfs_scan"],
                  description="merge local BF_H at designated worker")
        trace.add("bf_h_send", "bloom", costing.bloom_to_db_seconds(),
                  after=["bf_h_merge"],
                  description="broadcast BF_H to all DB workers")
        stats.bloom_bytes_moved += (
            costing.bloom_bytes() * max(0, jen.num_workers - 1)
            + costing.bloom_bytes() * database.num_workers
        )

        # -- Prune T' with BF_H (indexed, cheap) ----------------------------
        t_pruned = DbWorker.apply_bloom(t_parts, query.db_join_key,
                                        hdfs_bloom)
        t_prime_tuples = sum(part.num_rows for part in t_parts)
        trace.add("db_second_access", "db_scan",
                  costing.db_second_access_seconds(t_prime_tuples),
                  after=["bf_h_send", "db_filter"],
                  description="apply BF_H to T' (index-assisted)",
                  tuples=t_prime_tuples)

        # -- Second HDFS scan: no indexes, pay the full scan again ---------
        second_scan = jen.distributed_scan(query, db_bloom=db_bloom)
        meta = warehouse.hdfs.table_meta(query.hdfs_table)
        stats.hdfs_rows_scanned += second_scan.stats.rows_scanned
        stats.hdfs_stored_bytes_scanned += \
            second_scan.stats.stored_bytes_scanned
        trace.add("hdfs_scan_2", "hdfs_scan",
                  costing.hdfs_scan_seconds(
                      second_scan.stats.stored_bytes_scanned,
                      second_scan.stats.rows_scanned,
                      meta.format_name,
                  ),
                  after=["hdfs_scan"],
                  description="second full scan of L (no indexes on "
                              "HDFS): predicates + BF_DB again",
                  tuples=second_scan.stats.rows_scanned)

        l_store, l_ship = self._latemat_store(
            query, second_scan.wire_tables, "hdfs"
        )
        ingested = _group_ingest(l_ship, database.num_workers)
        l_tuples = sum(part.num_rows for part in ingested)
        l_wire_bytes = self._wire_row_bytes(l_ship)
        stats.hdfs_tuples_to_db = l_tuples
        trace.add("hdfs_to_db", "transfer",
                  costing.db_ingest_seconds(l_tuples, l_wire_bytes),
                  streams_from=["hdfs_scan_2"],
                  description="ship doubly filtered L'' into the database",
                  tuples=l_tuples,
                  volume_bytes=l_tuples * l_wire_bytes)
        shuffle_gate = ["hdfs_to_db"]
        if l_store is not None:
            # Same exact global-key prune as the plain DB-side join:
            # grouped ingest is not co-partitioned with T''.
            t_keys = np.unique(np.concatenate([
                part.column(query.db_join_key) for part in t_pruned
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
                      description="fetch surviving L'' payload rows into "
                                  "the database",
                      tuples=stitch_stats.l_fetched_tuples,
                      volume_bytes=(
                          stitch_stats.l_fetched_tuples * l_payload_bytes
                          * stitch_stats.l_amplification
                      ))
            shuffle_gate = ["payload_fetch_l"]

        # -- Final join in the database -------------------------------------
        t_tuples = sum(part.num_rows for part in t_pruned)
        choice = choose_db_join_strategy(
            t_tuples * t_parts[0].row_bytes(),
            sum(part.num_rows * part.row_bytes() for part in ingested),
            database.num_workers,
        )
        stats.db_internal_shuffle_bytes = choice.internal_bytes
        trace.add("db_internal_shuffle", "db_shuffle",
                  costing.db_internal_shuffle_seconds(choice.internal_bytes),
                  after=["db_second_access"],
                  streams_from=shuffle_gate,
                  description=f"in-database {choice.strategy.value}",
                  volume_bytes=choice.internal_bytes)
        result, join_stats = database.execute_hybrid_join(
            t_pruned, ingested, query, choice
        )
        stats.join_output_tuples = join_stats.join_output_tuples
        stats.result_rows = join_stats.result_rows
        trace.add("db_join", "db_cpu",
                  costing.db_join_seconds(
                      join_stats.build_tuples + join_stats.probe_tuples,
                      join_stats.join_output_tuples,
                  ),
                  streams_from=["db_internal_shuffle"],
                  description="in-database hash join + aggregation")
        return self._finish(warehouse, query, result, stats, trace)
