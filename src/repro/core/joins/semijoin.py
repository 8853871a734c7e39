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
    JoinRun,
    register_algorithm,
)
from repro.core.joins.repartition import jen_tail, ship_t, shuffle_l
from repro.relational.operators import semi_join_mask, unique_keys
from repro.query.query import HybridQuery

#: Bytes per exact join key on the wire.
KEY_BYTES = 4


class _ExactFilterJoin(JoinAlgorithm):
    """Shared machinery of the two exact-filter baselines."""

    #: Whether the second phase sends a positional bitmap back and prunes
    #: the database side too (PERF join) or not (plain semijoin).
    two_way = False

    def run(self, warehouse, query: HybridQuery,
            context=None) -> JoinResult:
        run = JoinRun(self, warehouse, query, context=context)
        t_parts = run.db_filter()

        # Exact distinct key set instead of a Bloom filter.
        t_keys = unique_keys(np.concatenate([
            part.column(query.db_join_key) for part in t_parts
        ]))
        key_list_bytes = (
            len(t_keys) * run.costing.scale_up * KEY_BYTES
            * run.cluster.num_workers
        )
        run.trace.add("keys_db_send", "transfer",
                      key_list_bytes
                      / run.costing.topology.switch_bytes_per_s,
                      after=["db_filter"],
                      description="multicast exact JK(T') list to JEN "
                                  "workers",
                      volume_bytes=key_list_bytes)
        run.stats.bloom_bytes_moved += key_list_bytes

        scan = run.hdfs_scan(gate=["startup", "keys_db_send"])
        pruned = [
            wire.filter(
                semi_join_mask(wire.column(query.hdfs_join_key), t_keys)
            )
            for wire in scan.wire_tables
        ]
        run.stats.hdfs_rows_after_bloom = sum(p.num_rows for p in pruned)
        l_side = shuffle_l(run, "exactly pruned L'", pruned, t_parts)
        if self.two_way:
            t_side = ship_t(run, "T''",
                            self._perf_second_phase(run, t_parts, pruned),
                            l_side.hot_keys,
                            after=["perf_bitmap_send", "db_filter"])
        else:
            t_side = ship_t(run, "T'", t_parts, l_side.hot_keys,
                            after=["db_filter"])
        return jen_tail(run, l_side, t_side)

    @staticmethod
    def _perf_second_phase(run, t_parts, pruned):
        """PERF: positional bitmap back, then prune the database side."""
        query, costing = run.query, run.costing
        if any(p.num_rows for p in pruned):
            l_keys = unique_keys(np.concatenate([
                part.column(query.hdfs_join_key) for part in pruned
            ]))
        else:
            l_keys = np.empty(0, dtype=np.int64)
        t_prime_tuples = sum(part.num_rows for part in t_parts)
        bitmap_bytes = t_prime_tuples * costing.scale_up / 8.0
        run.trace.add("perf_bitmap_send", "transfer",
                      bitmap_bytes / min(
                          costing.topology.hdfs.nic_bytes_per_s,
                          costing.topology.switch_bytes_per_s,
                      ),
                      after=["hdfs_scan"],
                      description="positional bitmap of matching T' tuples",
                      volume_bytes=bitmap_bytes)
        run.stats.bloom_bytes_moved += bitmap_bytes
        return [
            part.filter(
                semi_join_mask(part.column(query.db_join_key), l_keys)
            )
            for part in t_parts
        ]


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
