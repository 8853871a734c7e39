"""HDFS-side repartition join, with or without a Bloom filter
(paper Sections 3.3 and 4.4).

Steps (Figure 3):

1. DB workers apply local predicates and projection; with the Bloom
   filter variant they also build local filters that merge into BF_DB.
2. BF_DB is multicast to the JEN workers; the DB workers send T′ using
   the *agreed* hash function, so rows land directly on the JEN worker
   that will join them.
3. JEN workers scan L, apply predicates, projection and BF_DB, and
   shuffle the survivors with the same hash — interleaved with the scan.
4. Each worker builds a hash table on the L rows it receives (while the
   shuffle is still running), buffers arriving database rows, then
   probes, applies the post-join predicate and partially aggregates.
5. A designated worker computes the final aggregate and returns it.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.joins.base import (
    JoinAlgorithm,
    JoinResult,
    JoinStats,
    register_algorithm,
)
from repro.edw.partitioner import agreed_hash_partition
from repro.kernels.partition import partition_table
from repro.latemat import LateMatPlan
from repro.relational.table import Table
from repro.sim.trace import Trace
from repro.testkit import invariants
from repro.query.query import HybridQuery


@register_algorithm
class RepartitionJoin(JoinAlgorithm):
    """Repartition-based HDFS-side join; ``use_bloom`` adds BF_DB."""

    name = "repartition"

    def __init__(self, use_bloom: bool = False):
        self.use_bloom = use_bloom
        self.uses_db_bloom = use_bloom

    @property
    def display_name(self) -> str:
        """Paper-style label."""
        return "repartition(BF)" if self.use_bloom else "repartition"

    def run(self, warehouse, query: HybridQuery) -> JoinResult:
        costing = self._costing(warehouse)
        jen = warehouse.jen
        stats = JoinStats()
        trace = Trace(label=self.display_name)
        trace.add("startup", "latency", costing.startup_seconds(),
                  description="UDF invocation, DB<->JEN connections")

        # -- Step 1: local predicates + projection on T ------------------
        t_parts = self._run_db_filter(
            warehouse, query, costing, trace, stats,
            description="apply local predicates + projection on T",
        )

        # -- Optional: BF_DB build + multicast ---------------------------
        db_bloom = None
        scan_gate = ["startup"]
        if self.use_bloom:
            db_bloom = self._run_bf_db(warehouse, query, costing, trace,
                                       stats)
            scan_gate = ["startup", "bf_db_send"]

        # -- Step 3: scan L with predicates (+ BF_DB), shuffle -----------
        scan = self._run_hdfs_scan(
            warehouse, query, costing, trace, stats, scan_gate,
            db_bloom=db_bloom,
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
                  description="agreed-hash shuffle of L' among JEN workers",
                  tuples=shuffled.tuples_shuffled,
                  volume_bytes=shuffled.tuples_shuffled * l_wire_bytes)

        # -- Step 2 (concurrent): ship T' by the agreed hash -------------
        t_store, t_ship = self._latemat_store(query, t_parts, "db",
                                              stats=stats)
        t_dest, hot_t_tuples, hot_copy_tuples = _route_db_rows(
            t_ship, query.db_join_key, jen.num_workers, hot_keys=hot_keys
        )
        t_tuples = sum(part.num_rows for part in t_ship)
        t_wire_bytes = self._wire_row_bytes(t_ship)
        stats.db_tuples_sent = t_tuples
        stats.hot_tuples_broadcast += hot_copy_tuples
        trace.add("db_export", "transfer",
                  costing.db_export_seconds(t_tuples, t_wire_bytes),
                  after=["db_filter"],
                  description="DB workers send T' via agreed hash",
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
                      description="home workers relay hot-key T' rows "
                                  "to their spread worker sets",
                      tuples=extra_hot_copies,
                      volume_bytes=extra_hot_copies * t_wire_bytes)
            export_names.append("jen_hot_relay")

        # -- Steps 4-6: probe, aggregate, return -------------------------
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
            description="build hash tables on received L' rows",
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
                  description="probe with database rows",
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


def _route_db_rows(t_parts: List[Table], key: str,
                   num_jen_workers: int,
                   hot_keys=None) -> Tuple[List[Table], int, int]:
    """Regroup DB workers' outgoing rows by the agreed hash destination.

    The senders' rows are concatenated once and split by one pass of
    the partition kernel, so each destination holds its rows in sender
    order.

    With a :class:`repro.skew.HotKeySet` (the hybrid shuffle), rows of
    a detected heavy-hitter key are *duplicated* to that key's bounded
    destination set — one copy per worker that holds a spread slice of
    the matching build-side rows; the cold tail keeps the agreed hash.
    Returns the per-destination tables, the number of hot rows (each
    counted once), and the total delivered hot copies (what the
    duplication actually costs on the wire).
    """
    combined = Table.concat(t_parts)
    keys = combined.column(key)
    assignments = agreed_hash_partition(keys, num_jen_workers)
    use_hybrid = hot_keys is not None and len(hot_keys) > 0
    hot_tuples = 0
    copy_tuples = 0
    if use_hybrid:
        # Every cold row once, then each hot key's rows once per worker
        # of its destination set.
        cold = np.flatnonzero(~np.isin(keys, hot_keys.keys))
        rows = [cold]
        targets = [assignments[cold]]
        for hot_key, dests in zip(
                hot_keys.keys,
                hot_keys.destination_lists(num_jen_workers,
                                           agreed_hash_partition)):
            hot = np.flatnonzero(keys == hot_key)
            hot_tuples += int(hot.size)
            copy_tuples += int(hot.size) * int(dests.size)
            rows.append(np.tile(hot, dests.size))
            targets.append(np.repeat(dests, hot.size))
        combined = combined.take(np.concatenate(rows))
        assignments = np.concatenate(targets)
    destinations = partition_table(combined, assignments, num_jen_workers)
    if invariants.checking_enabled():
        if use_hybrid:
            invariants.check_broadcast_routing(
                t_parts, key, destinations, num_jen_workers,
                agreed_hash_partition, hot_keys.keys,
                fanouts=hot_keys.fanouts,
            )
        else:
            invariants.check_hash_partition(
                combined, key, destinations, num_jen_workers,
                agreed_hash_partition,
            )
    return destinations, hot_tuples, copy_tuples
