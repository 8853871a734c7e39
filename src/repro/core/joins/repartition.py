"""HDFS-side repartition join, with or without a Bloom filter
(paper Sections 3.3 and 4.4), and the JEN-side stages it is made of.

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

Steps 3, 2 and 4-5 are the stages :func:`shuffle_l`, :func:`ship_t` and
:func:`jen_tail`; the zigzag, semijoin, PERF and broadcast joins
compose the same stages in their own order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.joins.base import (
    JoinAlgorithm,
    JoinResult,
    JoinRun,
    register_algorithm,
)
from repro.edw.partitioner import agreed_hash_partition
from repro.kernels.partition import partition_table
from repro.latemat import LateMatPlan, PayloadStore, transfer_edge
from repro.relational.table import Table
from repro.skew import STEAL_THRESHOLD
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

    def run(self, warehouse, query: HybridQuery,
            context=None) -> JoinResult:
        run = JoinRun(self, warehouse, query, context=context)
        t_parts = run.db_filter()
        db_bloom = run.bf_db() if self.use_bloom else None
        scan = run.hdfs_scan(db_bloom)
        l_side = shuffle_l(run, "L'", scan.wire_tables, scan.hot_keys)
        t_side = ship_t(run, "T'", t_parts, scan.hot_keys,
                        after=["db_filter"])
        return jen_tail(run, l_side, t_side)


@dataclass
class Delivery:
    """One join input as it reaches the JEN workers."""

    #: Paper name of the rows (``"L'"``, ``"T''"`` ...).
    name: str
    #: One table per JEN worker (thin when ``store`` is set).
    parts: List[Table]
    #: Where the payloads stayed, when the rows travelled thin.
    store: Optional[PayloadStore]
    #: Rows delivered, each counted once.
    tuples: float
    #: Price of one travelling row.
    row_bytes: float
    #: The phases the rows stream out of.
    phases: List[str]
    #: Receiver skew the build pays (the shuffled L only).
    skew: float = 1.0


def shuffle_l(run: JoinRun, name: str, tables: List[Table],
              hot_keys) -> Delivery:
    """Step 3: shuffle the scan survivors among the JEN workers.

    ``hot_keys`` is ``None`` when skew handling is off: the trace pays
    the configured shuffle skew.  Otherwise the hybrid shuffle ran (even
    if it found nothing hot), so the skew is capped at the receiver
    balance it measured.
    """
    costing, stats = run.costing, run.stats
    store, ship, row_bytes = transfer_edge(tables, run.query, "hdfs")
    shuffled = run.warehouse.jen.shuffle_by_key(
        ship, run.query.hdfs_join_key, hot_keys=hot_keys)
    tuples = shuffled.tuples_shuffled
    stats.hdfs_tuples_shuffled = tuples
    run.trace.metadata["shuffle_partition_rows"] = [
        table.num_rows for table in shuffled.per_destination
    ]
    skew = costing.effective_shuffle_skew(
        run.warehouse.config.shuffle_skew, hybrid=hot_keys is not None,
        measured=shuffled.balance_factor())
    if hot_keys is not None:
        stats.hot_keys_detected = float(len(hot_keys))
        stats.hot_tuples_rerouted = float(shuffled.hot_tuples)
    run.trace.add("jen_shuffle", "shuffle",
                  costing.jen_shuffle_seconds(tuples, row_bytes, skew=skew),
                  streams_from=["hdfs_scan"],
                  description=f"agreed-hash shuffle of {name} among JEN "
                              "workers",
                  tuples=tuples,
                  volume_bytes=tuples * row_bytes)
    return Delivery(name, shuffled.per_destination, store, tuples,
                    row_bytes, ["jen_shuffle"], skew)


def ship_t(run: JoinRun, name: str, t_parts: List[Table], hot_keys,
           after=(), streams_from=()) -> Delivery:
    """Step 2: DB workers send their rows by the agreed hash.

    A hot key's rows cross the inter-cluster link once, to the key's
    home worker, which relays the extra copies to the rest of the key's
    spread set (``jen_hot_relay``).
    """
    costing, stats, trace = run.costing, run.stats, run.trace
    store, ship, row_bytes = transfer_edge(t_parts, run.query, "db")
    t_dest, hot_rows, hot_copies = _route_db_rows(
        ship, run.query.db_join_key, run.warehouse.jen.num_workers,
        hot_keys=hot_keys)
    tuples = sum(part.num_rows for part in ship)
    stats.db_tuples_sent = tuples
    stats.hot_tuples_broadcast += hot_copies
    trace.add("db_export", "transfer",
              costing.db_export_seconds(tuples, row_bytes),
              after=after, streams_from=streams_from,
              description=f"DB workers send {name} via agreed hash",
              tuples=tuples,
              volume_bytes=tuples * row_bytes)
    phases = ["db_export"]
    extra = hot_copies - hot_rows
    if extra > 0:
        trace.add("jen_hot_relay", "transfer",
                  costing.jen_duplicate_seconds(extra, row_bytes),
                  streams_from=["db_export"],
                  description=f"home workers relay hot-key {name} rows "
                              "to their spread worker sets",
                  tuples=extra,
                  volume_bytes=extra * row_bytes)
        phases.append("jen_hot_relay")
    return Delivery(name, t_dest, store, tuples, row_bytes, phases)


def jen_tail(run: JoinRun, l_side: Delivery, t_side: Delivery,
             broadcast: bool = False) -> JoinResult:
    """Steps 4-5: the local joins, then the phases they priced.

    Every worker builds on the L rows it received and probes with the T
    rows.  The broadcast join's workers instead probe the full T′ each
    of them built (``hash_build_t``) with their own scan output.  Work
    stealing, the build and spilling are priced after the joins ran,
    from what they measured.
    """
    costing, stats, trace = run.costing, run.stats, run.trace
    config = run.warehouse.config
    plan = LateMatPlan(l_store=l_side.store, t_store=t_side.store)
    result, joined = run.warehouse.jen.join_and_aggregate(
        l_side.parts, t_side.parts, run.query,
        memory_budget_rows=max(0.0, config.jen_memory_budget_rows)
        * config.scale,
        latemat_plan=plan,
        index_for=run.context.index_for,
        steal_threshold=(STEAL_THRESHOLD
                         if run.context.skew_handling else None),
    )
    output = joined.join_output_tuples
    stats.join_output_tuples = output
    stats.result_rows = joined.result_rows
    if broadcast:
        gate, probe = ["hash_build_t"], l_side
    else:
        gate, probe = ["hash_build"], t_side
        build_gate, build_skew = ["jen_shuffle"], l_side.skew
        stolen = joined.stolen_tuples
        if stolen > 0:
            stats.stolen_tuples = float(stolen)
            trace.add("work_steal", "shuffle",
                      costing.work_steal_seconds(stolen, l_side.row_bytes),
                      streams_from=["jen_shuffle"],
                      description="re-deal straggler join fragments to "
                                  "idle workers",
                      tuples=stolen,
                      volume_bytes=stolen * l_side.row_bytes)
            build_gate = ["jen_shuffle", "work_steal"]
            build_skew = min(
                build_skew, max(1.0, joined.post_steal_balance))
        trace.add("hash_build", "cpu",
                  costing.hash_build_seconds(l_side.tuples,
                                             skew=build_skew),
                  streams_from=build_gate,
                  description=f"build hash tables on received "
                              f"{l_side.name} rows",
                  tuples=l_side.tuples)
        if joined.per_slot_loads is not None:
            trace.metadata["join_slot_loads"] = list(joined.per_slot_loads)
    if joined.spilled_tuples > 0:
        stats.spilled_tuples = joined.spilled_tuples
        trace.add("spill_io", "disk",
                  costing.jen_spill_seconds(joined.spilled_tuples,
                                            l_side.row_bytes),
                  after=gate,
                  description=f"Grace-hash spill "
                              f"({joined.max_fragments} fragments)",
                  tuples=joined.spilled_tuples)
        gate = ["spill_io"]
    trace.add("probe", "cpu",
              costing.probe_seconds(probe.tuples, output),
              after=gate,
              streams_from=probe.phases,
              description=f"probe with {probe.name} rows",
              tuples=probe.tuples)
    # The batched stitch: L payloads stayed on their JEN workers, T
    # payloads in the EDW.
    fetches = []
    stitch = plan.stats
    for side, store, fetched, amplification in (
            ("l", plan.l_store, stitch.l_fetched_tuples,
             stitch.l_amplification),
            ("t", plan.t_store, stitch.t_fetched_tuples,
             stitch.t_amplification)):
        if store is None:
            continue
        cross = side == "t"
        row_bytes = store.payload_row_bytes()
        trace.add(f"payload_fetch_{side}",
                  "transfer" if cross else "shuffle",
                  costing.payload_fetch_seconds(
                      fetched, row_bytes, amplification=amplification,
                      cross_cluster=cross,
                  ),
                  streams_from=["probe"],
                  description="batched stitch: fetch surviving "
                              f"{side.upper()} payloads "
                              f"(x{amplification:.2f} page amplification)",
                  tuples=fetched,
                  volume_bytes=fetched * row_bytes * amplification)
        fetches.append(f"payload_fetch_{side}")
    trace.add("aggregate", "cpu",
              costing.jen_aggregate_seconds(output),
              streams_from=fetches or ["probe"],
              description="post-join predicate, partial + final agg",
              tuples=output)
    trace.add("result_return", "latency",
              costing.result_return_seconds(),
              after=["aggregate"],
              description="return final aggregate to the database")
    return run.finish(result)


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
