"""HDFS-side broadcast join (paper Section 3.2).

Rationale: when the database predicates are highly selective, T′ is
small enough to send to *every* JEN worker, so the HDFS table needs no
shuffle at all — each worker joins its local scan output against the
full T′ and partially aggregates.

The paper evaluated two broadcast schemes (Section 4.3): every DB worker
sending to every JEN worker directly, or sending once and relaying
inside the HDFS cluster.  It chose the direct scheme (relaying adds a
round of latency); this implementation supports both so the ablation
benchmark can reproduce the comparison.
"""

from __future__ import annotations

from repro.core.joins.base import (
    JoinAlgorithm,
    JoinResult,
    JoinRun,
    register_algorithm,
)
from repro.core.joins.repartition import Delivery, jen_tail
from repro.latemat import transfer_edge
from repro.net.transfer import TransferPattern
from repro.relational.table import Table
from repro.query.query import HybridQuery


@register_algorithm
class BroadcastJoin(JoinAlgorithm):
    """Send filtered T′ to every JEN worker; no HDFS shuffle."""

    name = "broadcast"

    def __init__(self,
                 pattern: TransferPattern = TransferPattern.BROADCAST_DIRECT):
        self.pattern = pattern

    def run(self, warehouse, query: HybridQuery,
            context=None) -> JoinResult:
        run = JoinRun(self, warehouse, query, context=context)
        costing, stats, trace = run.costing, run.stats, run.trace
        workers = run.cluster.num_workers
        t_parts = run.db_filter()

        # -- Step 2: broadcast T' to every JEN worker --------------------
        t_full = Table.concat(t_parts)
        t_store, t_ship, t_wire_bytes = transfer_edge([t_full], query, "db")
        t_tuples = t_full.num_rows
        stats.db_tuples_sent = t_tuples
        if self.pattern is TransferPattern.BROADCAST_DIRECT:
            trace.add("db_broadcast", "transfer",
                      costing.db_export_seconds(
                          t_tuples, t_wire_bytes, copies=workers
                      ),
                      after=["db_filter"],
                      description="each DB worker sends T' to every "
                                  "JEN worker",
                      tuples=t_tuples * workers,
                      volume_bytes=t_tuples * t_wire_bytes * workers)
            build_gate = ["db_broadcast"]
        else:
            trace.add("db_send_once", "transfer",
                      costing.db_export_seconds(t_tuples, t_wire_bytes),
                      after=["db_filter"],
                      description="DB workers send T' once to paired "
                                  "JEN workers",
                      tuples=t_tuples,
                      volume_bytes=t_tuples * t_wire_bytes)
            trace.add("jen_rebroadcast", "transfer",
                      costing.jen_rebroadcast_seconds(
                          t_tuples, t_wire_bytes
                      ),
                      after=["db_send_once"],
                      description="JEN workers relay T' to all peers",
                      tuples=t_tuples * (workers - 1),
                      volume_bytes=t_tuples * t_wire_bytes * (workers - 1))
            build_gate = ["jen_rebroadcast"]
        trace.add("hash_build_t", "cpu",
                  costing.hash_build_seconds(
                      t_tuples, per_worker_full_copy=True
                  ),
                  after=build_gate,
                  description="every worker builds a hash table on the "
                              "full T'",
                  tuples=t_tuples)

        # -- Step 3: scan L and join locally (no shuffle) -----------------
        # Every scanned-and-filtered L row probes the local T' table.
        scan = run.hdfs_scan()
        l_side = Delivery("L'", scan.wire_tables, None,
                          scan.stats.rows_after_predicates,
                          scan.wire_tables[0].row_bytes(), ["hdfs_scan"])
        # A crash during the scan can leave fewer workers to join on.
        t_side = Delivery("T'", [t_ship[0]] * run.cluster.num_workers,
                          t_store, t_tuples, t_wire_bytes, ["hash_build_t"])
        return jen_tail(run, l_side, t_side, broadcast=True)
