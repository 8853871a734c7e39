"""DB-side join, with or without a Bloom filter (paper Section 3.1).

The strategy every commercial hybrid system of the paper's era used
(PolyBase, HAWQ, SQL-H, Big Data SQL): filter the HDFS table remotely,
ship the survivors *into* the database, and join there.

Steps (Figure 1):

1. DB workers apply local predicates and projection on T; with the
   Bloom-filter variant they build BF_DB (index-only) and multicast it
   to the JEN workers.
2. JEN workers scan L, applying predicates, projection and (optionally)
   BF_DB, and stream the survivors to their paired DB workers — the
   grouped ingest pattern of Figure 5.
3. The database optimizer picks broadcast or repartition for the final
   join; because JEN cannot use the database's private partitioning
   hash, a repartition plan reshuffles the freshly ingested rows again.
4. Join, post-join predicate, group-by and aggregation run in the
   database; the result is already where the user wants it.

The ingest of step 2 and steps 3-4 are the stage :func:`edw_tail`,
which the DB-side zigzag variant reuses.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.joins.base import (
    JoinAlgorithm,
    JoinResult,
    JoinRun,
    register_algorithm,
)
from repro.edw.optimizer import choose_db_join_strategy
from repro.latemat import StitchStats, stitch_parts, transfer_edge
from repro.relational.table import Table
from repro.query.query import HybridQuery


@register_algorithm
class DbSideJoin(JoinAlgorithm):
    """Ship filtered HDFS rows into the EDW and join there."""

    name = "db"

    def __init__(self, use_bloom: bool = False):
        self.use_bloom = use_bloom
        self.uses_db_bloom = use_bloom

    @property
    def display_name(self) -> str:
        """Paper-style label."""
        return "db(BF)" if self.use_bloom else "db"

    def run(self, warehouse, query: HybridQuery,
            context=None) -> JoinResult:
        run = JoinRun(self, warehouse, query,
                      startup="read_hdfs UDF, coordinator handshakes",
                      context=context)
        t_parts = run.db_filter()
        db_bloom = run.bf_db() if self.use_bloom else None
        scan = run.hdfs_scan(db_bloom)
        return edw_tail(run, "L", scan.wire_tables, "hdfs_scan", t_parts,
                        "db_filter")


def edw_tail(run: JoinRun, name: str, wire_tables: List[Table],
             scan_phase: str, t_parts: List[Table],
             t_phase: str) -> JoinResult:
    """Steps 2-4: ingest the scan output into the EDW and join there.

    ``wire_tables`` stream out of ``scan_phase``; ``t_parts`` are the
    database rows, ready once ``t_phase`` has run.
    """
    costing, stats, trace = run.costing, run.stats, run.trace
    query, database = run.query, run.warehouse.database
    store, ship, row_bytes = transfer_edge(wire_tables, query, "hdfs")
    ingested = _group_ingest(ship, database.num_workers)
    l_tuples = sum(part.num_rows for part in ingested)
    stats.hdfs_tuples_to_db = l_tuples
    trace.add("hdfs_to_db", "transfer",
              costing.db_ingest_seconds(l_tuples, row_bytes),
              streams_from=[scan_phase],
              description=f"JEN workers stream filtered {name} into "
                          "paired DB workers",
              tuples=l_tuples,
              volume_bytes=l_tuples * row_bytes)
    shuffle_gate = ["hdfs_to_db"]
    if store is not None:
        # Grouped ingest has no hash alignment with the database's
        # private partitioning, so thin rows are pruned against the
        # global key set of T' — exact whatever join strategy the
        # optimizer picks below — before fetching payloads HDFS->EDW.
        t_keys = np.unique(np.concatenate([
            part.column(query.db_join_key) for part in t_parts
        ]))
        stitch = StitchStats()
        ingested = stitch_parts(
            store, ingested, query.hdfs_join_key, t_keys, stitch,
            side="l",
        )
        payload_bytes = store.payload_row_bytes()
        trace.add("payload_fetch_l", "transfer",
                  costing.payload_fetch_seconds(
                      stitch.l_fetched_tuples, payload_bytes,
                      stitch.l_amplification,
                      cross_cluster=True, to_db=True,
                  ),
                  streams_from=["hdfs_to_db"],
                  description=f"fetch surviving {name} payload rows into "
                              "the database",
                  tuples=stitch.l_fetched_tuples,
                  volume_bytes=(
                      stitch.l_fetched_tuples * payload_bytes
                      * stitch.l_amplification
                  ))
        shuffle_gate = ["payload_fetch_l"]

    # -- Optimizer choice + in-database join ------------------------------
    t_tuples = sum(part.num_rows for part in t_parts)
    choice = choose_db_join_strategy(
        t_tuples * t_parts[0].row_bytes(),
        sum(part.num_rows * part.row_bytes() for part in ingested),
        database.num_workers,
    )
    stats.db_internal_shuffle_bytes = choice.internal_bytes
    trace.add("db_internal_shuffle", "db_shuffle",
              costing.db_internal_shuffle_seconds(choice.internal_bytes),
              after=[t_phase],
              streams_from=shuffle_gate,
              description=f"in-database {choice.strategy.value} "
                          "(JEN cannot target the private hash)",
              volume_bytes=choice.internal_bytes)
    result, joined = database.execute_hybrid_join(
        t_parts, ingested, query, choice
    )
    stats.join_output_tuples = joined.join_output_tuples
    stats.result_rows = joined.result_rows
    input_tuples = joined.build_tuples + joined.probe_tuples
    trace.add("db_join", "db_cpu",
              costing.db_join_seconds(input_tuples,
                                      joined.join_output_tuples),
              streams_from=["db_internal_shuffle"],
              description="in-database hash join, post-join predicate, "
                          "group-by + aggregation",
              tuples=input_tuples)
    return run.finish(result)


def _group_ingest(wire_tables: List[Table], num_db_workers: int
                  ) -> List[Table]:
    """Assign each JEN worker's output to one DB worker (Fig. 5 groups)."""
    per_db: List[List[Table]] = [[] for _ in range(num_db_workers)]
    for jen_worker, wire in enumerate(wire_tables):
        per_db[jen_worker % num_db_workers].append(wire)
    grouped: List[Table] = []
    empty_template = wire_tables[0].slice(0, 0)
    for pieces in per_db:
        grouped.append(Table.concat(pieces) if pieces else empty_template)
    return grouped
