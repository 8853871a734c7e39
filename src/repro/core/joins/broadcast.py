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
    JoinStats,
    register_algorithm,
)
from repro.latemat import LateMatPlan
from repro.net.transfer import TransferPattern
from repro.relational.table import Table
from repro.sim.trace import Trace
from repro.query.query import HybridQuery


@register_algorithm
class BroadcastJoin(JoinAlgorithm):
    """Send filtered T′ to every JEN worker; no HDFS shuffle."""

    name = "broadcast"

    def __init__(self,
                 pattern: TransferPattern = TransferPattern.BROADCAST_DIRECT):
        if pattern not in (TransferPattern.BROADCAST_DIRECT,
                           TransferPattern.BROADCAST_RELAY):
            raise ValueError(f"not a broadcast pattern: {pattern}")
        self.pattern = pattern

    def run(self, warehouse, query: HybridQuery) -> JoinResult:
        costing = self._costing(warehouse)
        jen = warehouse.jen
        stats = JoinStats()
        trace = Trace(label=self.name)
        trace.add("startup", "latency", costing.startup_seconds(),
                  description="UDF invocation, DB<->JEN connections")

        # -- Step 1: local predicates + projection on T ------------------
        t_parts = self._run_db_filter(
            warehouse, query, costing, trace, stats,
            description="apply local predicates + projection on T",
        )

        # -- Step 2: broadcast T' to every JEN worker --------------------
        t_full = Table.concat(t_parts)
        t_store, t_ship = self._latemat_store(query, [t_full], "db")
        t_broadcast = t_ship[0]
        t_tuples = t_full.num_rows
        t_wire_bytes = self._wire_row_bytes(t_ship)
        stats.db_tuples_sent = t_tuples
        stats.db_send_copies = jen.num_workers
        if self.pattern is TransferPattern.BROADCAST_DIRECT:
            trace.add("db_broadcast", "transfer",
                      costing.db_export_seconds(
                          t_tuples, t_wire_bytes, copies=jen.num_workers
                      ),
                      after=["db_filter"],
                      description="each DB worker sends T' to every "
                                  "JEN worker",
                      tuples=t_tuples * jen.num_workers,
                      volume_bytes=(
                          t_tuples * t_wire_bytes * jen.num_workers
                      ))
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
                      tuples=t_tuples * (jen.num_workers - 1),
                      volume_bytes=(
                          t_tuples * t_wire_bytes * (jen.num_workers - 1)
                      ))
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
        scan = self._run_hdfs_scan(
            warehouse, query, costing, trace, stats, gate=["startup"],
        )
        latemat_plan = LateMatPlan(t_store=t_store)
        result, join_stats = jen.join_and_aggregate(
            scan.wire_tables,
            [t_broadcast] * jen.num_workers,
            query,
            memory_budget_rows=self._memory_budget_rows(warehouse),
            latemat_plan=latemat_plan,
        )
        stats.join_output_tuples = join_stats.join_output_tuples
        stats.result_rows = join_stats.result_rows
        probe_gate = self._add_spill_phase(
            costing, trace, stats, join_stats,
            scan.wire_tables[0].row_bytes(), ["hash_build_t"],
        )
        # Every scanned-and-filtered L row probes the local T' table.
        trace.add("probe", "cpu",
                  costing.probe_seconds(
                      scan.stats.rows_after_predicates,
                      join_stats.join_output_tuples,
                  ),
                  after=probe_gate,
                  streams_from=["hdfs_scan"],
                  description="probe T' hash table with streaming L rows",
                  tuples=scan.stats.rows_after_predicates)
        agg_gate = self._add_payload_fetch_phases(
            costing, trace, latemat_plan, ["probe"]
        )
        trace.add("aggregate", "cpu",
                  costing.jen_aggregate_seconds(
                      join_stats.join_output_tuples
                  ),
                  streams_from=agg_gate,
                  description="post-join predicate, partial + final agg",
                  tuples=join_stats.join_output_tuples)
        trace.add("result_return", "latency",
                  costing.result_return_seconds(),
                  after=["aggregate"],
                  description="return final aggregate to the database")
        return self._finish(warehouse, query, result, stats, trace)
