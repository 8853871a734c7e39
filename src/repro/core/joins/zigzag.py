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

from repro.core.joins.base import (
    JoinAlgorithm,
    JoinResult,
    JoinStats,
    register_algorithm,
)
from repro.core.joins.repartition import _route_db_rows
from repro.edw.worker import DbWorker
from repro.latemat import LateMatPlan
from repro.sim.trace import Trace
from repro.query.query import HybridQuery


@register_algorithm
class ZigzagJoin(JoinAlgorithm):
    """The paper's new algorithm: Bloom filters both ways."""

    name = "zigzag"
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

        # -- Step 1: T' and BF_DB ----------------------------------------
        t_parts = self._run_db_filter(
            warehouse, query, costing, trace, stats,
            description="apply local predicates + projection on T "
                        "(T' materialised)",
        )
        db_bloom = self._run_bf_db(warehouse, query, costing, trace, stats)

        # -- Step 3: scan with BF_DB, building BF_H during the scan ------
        scan = self._run_hdfs_scan(
            warehouse, query, costing, trace, stats,
            gate=["startup", "bf_db_send"],
            db_bloom=db_bloom,
            build_hdfs_bloom=True,
        )
        hot_keys = scan.hot_keys
        l_store, l_ship = self._latemat_store(
            query, scan.wire_tables, "hdfs"
        )
        shuffled = jen.shuffle_by_key(l_ship,
                                      query.hdfs_join_key,
                                      hot_keys=hot_keys)
        stats.hdfs_tuples_shuffled = shuffled.tuples_shuffled
        self._record_hot_shuffle(stats, trace, hot_keys, shuffled)
        l_wire_bytes = self._wire_row_bytes(l_ship)
        shuffle_skew = self._effective_shuffle_skew(
            warehouse, costing, shuffled, hot_keys
        )
        trace.add("jen_shuffle", "shuffle",
                  costing.jen_shuffle_seconds(
                      shuffled.tuples_shuffled, l_wire_bytes,
                      skew=shuffle_skew,
                  ),
                  streams_from=["hdfs_scan"],
                  description="agreed-hash shuffle of doubly filtered L''",
                  tuples=shuffled.tuples_shuffled,
                  volume_bytes=shuffled.tuples_shuffled * l_wire_bytes)

        # -- Step 4: merge BF_H, send to the database ---------------------
        hdfs_bloom = scan.global_bloom()
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

        # -- Steps 5-6: apply BF_H to T', ship T'' ------------------------
        t_pruned = DbWorker.apply_bloom(t_parts, query.db_join_key,
                                        hdfs_bloom)
        t_prime_tuples = sum(part.num_rows for part in t_parts)
        t_tuples = sum(part.num_rows for part in t_pruned)
        stats.db_tuples_sent = t_tuples
        trace.add("db_second_access", "db_scan",
                  costing.db_second_access_seconds(t_prime_tuples),
                  after=["bf_h_send", "db_filter"],
                  description="apply BF_H to T' (index-assisted)",
                  tuples=t_prime_tuples)
        t_store, t_ship = self._latemat_store(query, t_pruned, "db")
        t_wire_bytes = self._wire_row_bytes(t_ship)
        t_dest, hot_t_tuples, hot_copy_tuples = _route_db_rows(
            t_ship, query.db_join_key, jen.num_workers,
            hot_keys=hot_keys,
        )
        stats.hot_tuples_broadcast += hot_copy_tuples
        trace.add("db_export", "transfer",
                  costing.db_export_seconds(t_tuples, t_wire_bytes),
                  streams_from=["db_second_access"],
                  description="DB workers send T'' via agreed hash",
                  tuples=t_tuples,
                  volume_bytes=t_tuples * t_wire_bytes)
        export_names = ["db_export"]
        extra_hot_copies = hot_copy_tuples - hot_t_tuples
        if extra_hot_copies > 0:
            trace.add("jen_hot_relay", "transfer",
                      costing.jen_duplicate_seconds(
                          extra_hot_copies, t_wire_bytes
                      ),
                      streams_from=["db_export"],
                      description="home workers relay hot-key T'' rows "
                                  "to their spread worker sets",
                      tuples=extra_hot_copies,
                      volume_bytes=extra_hot_copies * t_wire_bytes)
            export_names.append("jen_hot_relay")

        # -- Steps 7-9: probe, aggregate, return --------------------------
        latemat_plan = LateMatPlan(l_store=l_store, t_store=t_store)
        result, join_stats = jen.join_and_aggregate(
            shuffled.per_destination, t_dest, query,
            memory_budget_rows=self._memory_budget_rows(warehouse),
            latemat_plan=latemat_plan,
        )
        stats.join_output_tuples = join_stats.join_output_tuples
        stats.result_rows = join_stats.result_rows
        self._add_steal_and_build_phases(
            costing, trace, stats, join_stats, shuffled, l_wire_bytes,
            shuffle_skew,
            description="build hash tables on received L'' rows",
        )
        probe_gate = self._add_spill_phase(
            costing, trace, stats, join_stats, l_wire_bytes,
            ["hash_build"],
        )
        trace.add("probe", "cpu",
                  costing.probe_seconds(
                      t_tuples, join_stats.join_output_tuples
                  ),
                  after=probe_gate,
                  streams_from=export_names,
                  description="probe with doubly filtered database rows",
                  tuples=t_tuples)
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
