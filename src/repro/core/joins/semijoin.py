"""Related-work baselines: the classic semi-join and the PERF join.

The paper positions the Bloom-filtered algorithms against two classical
alternatives (Section 6): Mackert & Lohman's semijoin — ship the exact
distinct join-key *list* instead of a Bloom filter — and Li & Ross's
PERF join, whose second phase returns a positional bitmap in tuple-scan
order instead of a value filter.

Both are implemented as HDFS-side repartition variants so the comparison
isolates exactly the filter representation:

* :class:`SemiJoin` ships ``|JK(T')| * 4`` bytes of exact keys instead
  of a 16 MB Bloom filter; pruning is exact (no false positives) but the
  transfer grows with the key count.
* :class:`PerfJoin` additionally sends back a one-*bit*-per-tuple map of
  T′ (in scan order) instead of any value structure — the cheapest
  possible second-phase filter, at the price of a second coordinated
  pass.  Mirroring the zigzag join's shape makes the "2-way exchange"
  comparison direct.
"""

from __future__ import annotations

import numpy as np

from repro.core.joins.base import (
    JoinAlgorithm,
    JoinResult,
    JoinStats,
    register_algorithm,
)
from repro.core.joins.repartition import _route_db_rows
from repro.latemat import LateMatPlan
from repro.relational.operators import semi_join_mask, unique_keys
from repro.sim.trace import Trace
from repro.query.query import HybridQuery

#: Bytes per exact join key on the wire.
KEY_BYTES = 4


class _ExactFilterJoin(JoinAlgorithm):
    """Shared machinery of the two exact-filter baselines."""

    #: Whether the second phase sends a positional bitmap back and prunes
    #: the database side too (PERF join) or not (plain semijoin).
    two_way = False

    def run(self, warehouse, query: HybridQuery) -> JoinResult:
        costing = self._costing(warehouse)
        database = warehouse.database
        jen = warehouse.jen
        stats = JoinStats()
        trace = Trace(label=self.name)
        trace.add("startup", "latency", costing.startup_seconds())

        t_parts = self._run_db_filter(
            warehouse, query, costing, trace, stats,
            description="apply local predicates + projection on T",
        )

        # Exact distinct key set instead of a Bloom filter.
        t_keys = unique_keys(np.concatenate([
            part.column(query.db_join_key) for part in t_parts
        ]))
        key_list_bytes = (
            len(t_keys) * costing.scale_up * KEY_BYTES * jen.num_workers
        )
        trace.add("keys_db_send", "transfer",
                  key_list_bytes / costing.topology.switch_bytes_per_s,
                  after=["db_filter"],
                  description="multicast exact JK(T') list to JEN workers",
                  volume_bytes=key_list_bytes)
        stats.bloom_bytes_moved += key_list_bytes

        scan = self._run_hdfs_scan(
            warehouse, query, costing, trace, stats,
            gate=["startup", "keys_db_send"],
        )
        pruned = [
            wire.filter(
                semi_join_mask(wire.column(query.hdfs_join_key), t_keys)
            )
            for wire in scan.wire_tables
        ]
        stats.hdfs_rows_after_bloom = sum(p.num_rows for p in pruned)
        hot_keys = scan.hot_keys
        l_store, l_ship = self._latemat_store(query, pruned, "hdfs")
        shuffled = jen.shuffle_by_key(l_ship, query.hdfs_join_key,
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
                  description="agreed-hash shuffle of exactly pruned L'",
                  tuples=shuffled.tuples_shuffled,
                  volume_bytes=shuffled.tuples_shuffled * l_wire_bytes)

        if self.two_way:
            outgoing, export_gate = self._perf_second_phase(
                costing, trace, stats, query, t_parts, pruned
            )
        else:
            outgoing, export_gate = t_parts, ["db_filter"]

        t_store, t_ship = self._latemat_store(query, outgoing, "db")
        t_wire_bytes = self._wire_row_bytes(t_ship)
        t_dest, hot_t_tuples, hot_copy_tuples = _route_db_rows(
            t_ship, query.db_join_key, jen.num_workers,
            hot_keys=hot_keys,
        )
        t_tuples = sum(part.num_rows for part in outgoing)
        stats.db_tuples_sent = t_tuples
        stats.hot_tuples_broadcast += hot_copy_tuples
        trace.add("db_export", "transfer",
                  costing.db_export_seconds(t_tuples, t_wire_bytes),
                  after=export_gate,
                  tuples=t_tuples,
                  volume_bytes=t_tuples * t_wire_bytes,
                  description="DB workers send their rows via agreed hash")
        export_names = ["db_export"]
        extra_hot_copies = hot_copy_tuples - hot_t_tuples
        if extra_hot_copies > 0:
            trace.add("jen_hot_relay", "transfer",
                      costing.jen_duplicate_seconds(
                          extra_hot_copies, t_wire_bytes
                      ),
                      streams_from=["db_export"],
                      tuples=extra_hot_copies,
                      volume_bytes=extra_hot_copies * t_wire_bytes,
                      description="home workers relay hot-key rows to "
                                  "their spread worker sets")
            export_names.append("jen_hot_relay")

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
            description="build hash tables on received pruned L' rows",
        )
        probe_gate = self._add_spill_phase(
            costing, trace, stats, join_stats, l_wire_bytes,
            ["hash_build"],
        )
        trace.add("probe", "cpu",
                  costing.probe_seconds(
                      t_tuples, join_stats.join_output_tuples
                  ),
                  after=probe_gate, streams_from=export_names)
        agg_gate = self._add_payload_fetch_phases(
            costing, trace, latemat_plan, ["probe"]
        )
        trace.add("aggregate", "cpu",
                  costing.jen_aggregate_seconds(
                      join_stats.join_output_tuples
                  ),
                  streams_from=agg_gate)
        trace.add("result_return", "latency",
                  costing.result_return_seconds(), after=["aggregate"])
        return self._finish(warehouse, query, result, stats, trace)

    def _perf_second_phase(self, costing, trace, stats, query,
                           t_parts, pruned):
        """PERF: positional bitmap back, then prune the database side."""
        if any(p.num_rows for p in pruned):
            l_keys = unique_keys(np.concatenate([
                part.column(query.hdfs_join_key) for part in pruned
            ]))
        else:
            l_keys = np.empty(0, dtype=np.int64)
        t_prime_tuples = sum(part.num_rows for part in t_parts)
        bitmap_bytes = t_prime_tuples * costing.scale_up / 8.0
        trace.add("perf_bitmap_send", "transfer",
                  bitmap_bytes / min(
                      costing.topology.hdfs.nic_bytes_per_s,
                      costing.topology.switch_bytes_per_s,
                  ),
                  after=["hdfs_scan"],
                  description="positional bitmap of matching T' tuples",
                  volume_bytes=bitmap_bytes)
        stats.bloom_bytes_moved += bitmap_bytes
        outgoing = [
            part.filter(
                semi_join_mask(part.column(query.db_join_key), l_keys)
            )
            for part in t_parts
        ]
        return outgoing, ["perf_bitmap_send", "db_filter"]


@register_algorithm
class SemiJoin(_ExactFilterJoin):
    """Repartition join pruned by the exact key set of T′."""

    name = "semijoin"
    two_way = False


@register_algorithm
class PerfJoin(_ExactFilterJoin):
    """Two-way exchange with an exact positional bitmap (PERF join)."""

    name = "perf"
    two_way = True
