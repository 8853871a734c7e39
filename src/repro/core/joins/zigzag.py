"""The zigzag join: 2-way Bloom filters (paper Sections 3.4 and 4.4).

The only algorithm that exploits the join-key predicates *and* the local
predicates on both sides.  Data flow (Figure 4):

1. DB workers filter/project T and build BF_DB (index-only plan).
2. BF_DB is multicast to the JEN workers — a blocking prerequisite for
   the scan.
3. JEN workers scan L, applying predicates, projection and BF_DB; they
   populate local HDFS Bloom filters *during* the scan and shuffle the
   surviving rows with the agreed hash, interleaved with the scan.
4. The local filters are merged into BF_H at a designated worker and
   sent to all DB workers — a hard barrier: BF_H cannot exist before the
   scan has seen every row.
5. DB workers apply BF_H to T′ (cheap, index-assisted re-access).
6. The doubly filtered T″ is sent via the agreed hash.
7-9. JEN workers probe, aggregate, and return the result.

Because the HDFS scan dominates and the database supports indexed
re-access, the second pass over T′ costs little — the asymmetry that
makes two-way Bloom filters worthwhile in a hybrid warehouse even though
they rarely pay off inside one homogeneous system.
"""

from __future__ import annotations

from typing import List

from repro.core.joins.base import (
    JoinAlgorithm,
    JoinResult,
    JoinRun,
    register_algorithm,
)
from repro.core.joins.repartition import jen_tail, ship_t, shuffle_l
from repro.edw.worker import DbWorker
from repro.relational.table import Table
from repro.query.query import HybridQuery


@register_algorithm
class ZigzagJoin(JoinAlgorithm):
    """The paper's new algorithm: Bloom filters both ways."""

    name = "zigzag"
    uses_db_bloom = True
    uses_hdfs_bloom = True

    def run(self, warehouse, query: HybridQuery,
            context=None) -> JoinResult:
        run = JoinRun(self, warehouse, query, context=context)
        t_parts = run.db_filter()
        db_bloom = run.bf_db()
        scan = run.hdfs_scan(db_bloom, build_hdfs_bloom=True)
        l_side = shuffle_l(run, "L''", scan.wire_tables, scan.hot_keys)
        t_pruned = bf_h(run, scan, t_parts)
        t_side = ship_t(run, "T''", t_pruned, scan.hot_keys,
                        streams_from=["db_second_access"])
        return jen_tail(run, l_side, t_side)


def bf_h(run: JoinRun, scan, t_parts: List[Table]) -> List[Table]:
    """Steps 4-5: merge BF_H, send it to the DB workers, prune T′ by it.

    Returns T″.  The merge waits for the whole scan: BF_H cannot exist
    before the scan has seen every row.
    """
    costing, trace = run.costing, run.trace
    hdfs_bloom = scan.global_bloom()
    trace.add("bf_h_merge", "bloom",
              costing.bloom_merge_intra_jen_seconds(),
              after=["hdfs_scan"],
              description="merge local BF_H at designated worker")
    trace.add("bf_h_send", "bloom", costing.bloom_to_db_seconds(),
              after=["bf_h_merge"],
              description="broadcast BF_H to all DB workers")
    run.stats.bloom_bytes_moved += (
        costing.bloom_bytes() * max(0, run.warehouse.jen.num_workers - 1)
        + costing.bloom_bytes() * run.warehouse.database.num_workers
    )
    t_pruned = DbWorker.apply_bloom(t_parts, run.query.db_join_key,
                                    hdfs_bloom)
    t_prime_tuples = sum(part.num_rows for part in t_parts)
    trace.add("db_second_access", "db_scan",
              costing.db_second_access_seconds(t_prime_tuples),
              after=["bf_h_send", "db_filter"],
              description="apply BF_H to T' (index-assisted)",
              tuples=t_prime_tuples)
    return t_pruned
