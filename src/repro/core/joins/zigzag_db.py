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
    JoinRun,
    add_scan_phase,
    register_algorithm,
)
from repro.core.joins.db_side import edw_tail
from repro.core.joins.zigzag import bf_h
from repro.query.query import HybridQuery


@register_algorithm
class ZigzagDbJoin(JoinAlgorithm):
    """Two-way Bloom filters, but the final join runs in the EDW."""

    name = "zigzag-db"

    def run(self, warehouse, query: HybridQuery,
            context=None) -> JoinResult:
        run = JoinRun(self, warehouse, query, context=context)
        t_parts = run.db_filter()
        db_bloom = run.bf_db(t_parts)
        # -- First HDFS scan: only to build BF_H ---------------------------
        first_scan = run.hdfs_scan(db_bloom, build_hdfs_bloom=True)
        t_pruned = bf_h(run, first_scan, t_parts)

        # -- Second HDFS scan: no indexes, pay the full scan again ---------
        second_scan = warehouse.jen.distributed_scan(
            query, run.cluster, db_bloom=db_bloom, observers=run.observers)
        meta = warehouse.hdfs.table_meta(query.hdfs_table)
        run.stats.hdfs_rows_scanned += second_scan.stats.rows_scanned
        add_scan_phase(run.trace, run.costing, "hdfs_scan_2",
                       second_scan.stats, meta.format_name, ["hdfs_scan"],
                       "second full scan of L (no indexes on HDFS): "
                       "predicates + BF_DB again")
        return edw_tail(run, "L''", second_scan.wire_tables, "hdfs_scan_2",
                        t_pruned, "db_second_access")
