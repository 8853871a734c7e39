"""Join algorithm interface, statistics and results.

A :class:`JoinAlgorithm` takes a :class:`~repro.warehouse.HybridWarehouse`
and a :class:`~repro.query.query.HybridQuery`, executes the real data
plane, prices a :class:`~repro.sim.trace.Trace`, replays it, and returns
a :class:`JoinResult` bundling the answer, the movement statistics (the
paper's Table 1 numbers) and the simulated timing (the paper's figures).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, fields
from typing import Dict, List, Tuple, Type

from repro.adaptive import hooks as adaptive_hooks
from repro.errors import JoinError
from repro.relational.table import Table
from repro.sim.replay import TimingResult, replay_trace
from repro.sim.trace import Trace
from repro.core.joins.costing import JoinCosting
from repro.query.query import HybridQuery


@dataclass
class JoinStats:
    """Raw data-plane movement counts for one run.

    All counts are at the *materialised* scale; use :meth:`scaled` with
    the run's scale-up factor for paper-scale numbers (what Table 1
    reports).
    """

    hdfs_rows_scanned: float = 0.0
    hdfs_stored_bytes_scanned: float = 0.0
    hdfs_rows_after_predicates: float = 0.0
    hdfs_rows_after_bloom: float = 0.0
    #: Tuples entering the JEN-to-JEN shuffle (Table 1, column 1).
    hdfs_tuples_shuffled: float = 0.0
    #: Filtered HDFS tuples shipped into the database (DB-side join).
    hdfs_tuples_to_db: float = 0.0
    #: Database tuples shipped to the HDFS side (Table 1, column 2).
    db_tuples_sent: float = 0.0
    #: Copies each exported DB tuple takes (broadcast join: one per JEN
    #: worker).  Not rescaled.
    db_send_copies: float = 1.0
    db_rows_scanned: float = 0.0
    #: Bloom filter bytes moved, already at paper scale.
    bloom_bytes_moved: float = 0.0
    db_internal_shuffle_bytes: float = 0.0
    join_output_tuples: float = 0.0
    result_rows: float = 0.0
    #: Tuples written to and re-read from disk by spilling JEN joins.
    spilled_tuples: float = 0.0
    #: Partial scan output lost to injected worker crashes (wasted work,
    #: not double-counted in ``hdfs_rows_scanned``).
    hdfs_rows_discarded: float = 0.0
    #: Heavy-hitter join keys the skew plane detected.  Not rescaled (a
    #: key count, not a tuple volume).
    hot_keys_detected: float = 0.0
    #: Build-side (L) rows spread off the agreed hash by the hybrid
    #: shuffle.
    hot_tuples_rerouted: float = 0.0
    #: Probe-side (T′) rows broadcast to every JEN worker (counted
    #: once; the trace's ``db_broadcast_hot`` phase carries the copies).
    hot_tuples_broadcast: float = 0.0
    #: Build + probe rows re-dealt across workers by work stealing.
    stolen_tuples: float = 0.0

    def scaled(self, multiplier: float) -> "JoinStats":
        """Counts multiplied up to paper scale (Bloom bytes unchanged)."""
        unscaled = {"bloom_bytes_moved", "db_send_copies",
                    "hot_keys_detected"}
        values: Dict[str, float] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            values[spec.name] = (
                value if spec.name in unscaled else value * multiplier
            )
        return JoinStats(**values)


@dataclass
class JoinResult:
    """Everything one algorithm run produced."""

    algorithm: str
    result: Table
    stats: JoinStats
    trace: Trace
    timing: TimingResult
    scale_up: float

    @property
    def total_seconds(self) -> float:
        """Simulated end-to-end execution time at paper scale."""
        return self.timing.total_seconds

    def paper_stats(self) -> JoinStats:
        """Movement statistics scaled to paper size."""
        return self.stats.scaled(self.scale_up)

    def critical_path(self) -> List[str]:
        """The phase chain that determined the simulated makespan."""
        return self.timing.critical_path(self.trace)

    def summary(self) -> str:
        """One-line human-readable outcome."""
        paper = self.paper_stats()
        return (
            f"{self.algorithm:<18s} {self.total_seconds:7.1f}s  "
            f"shuffled={paper.hdfs_tuples_shuffled / 1e6:10.1f}M  "
            f"db_sent={paper.db_tuples_sent / 1e6:8.1f}M  "
            f"rows={int(self.result.num_rows)}"
        )


class JoinAlgorithm:
    """Base class: one hybrid-warehouse join strategy."""

    #: Registry / display name (e.g. ``"zigzag"``).
    name: str = "base"
    #: Whether this algorithm uses a database-side Bloom filter.
    uses_db_bloom: bool = False
    #: Whether this algorithm uses an HDFS-side Bloom filter.
    uses_hdfs_bloom: bool = False

    def run(self, warehouse, query: HybridQuery) -> JoinResult:
        """Execute the algorithm end to end."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared plumbing for subclasses
    # ------------------------------------------------------------------
    def _costing(self, warehouse) -> JoinCosting:
        return JoinCosting(warehouse.config, warehouse.topology)

    def _finish(self, warehouse, query: HybridQuery, result: Table,
                stats: JoinStats, trace: Trace) -> JoinResult:
        """Replay the trace and assemble the result object.

        If a fault plan is armed, the recovery actions the engine
        accumulated (re-scans, retries, speculation) are materialised as
        ``recovery`` phases first, so the replayed makespan pays for
        them and the Gantt timeline shows them.
        """
        injector = getattr(warehouse.jen, "injector", None)
        if injector is not None and injector.armed:
            injector.charge_trace(trace)
        trace.metadata["bytes_shipped"] = classify_bytes_shipped(trace)
        timing = replay_trace(trace)
        return JoinResult(
            algorithm=self.name,
            result=result,
            stats=stats,
            trace=trace,
            timing=timing,
            scale_up=1.0 / warehouse.config.scale,
        )

    @staticmethod
    def _wire_row_bytes(tables: List[Table]) -> float:
        """Row width the transfer phases price one wire row at.

        Classic row shipping moves decoded rows, so the logical width
        applies.  With late materialization on, dictionary columns
        travel as ids, so the width is :meth:`Table.wire_row_bytes` —
        the one price each transfer's bytes get.
        """
        if not tables:
            raise JoinError("no wire tables")
        from repro.latemat import late_materialization_enabled

        if late_materialization_enabled():
            return tables[0].wire_row_bytes()
        return float(tables[0].row_bytes())

    def _latemat_store(self, query: HybridQuery, tables: List[Table],
                       side: str):
        """Thin ``tables`` for a transfer edge if late mat says to.

        Returns ``(store, tables_to_ship)``: the payload store plus the
        thin twins when thinning applies, else ``(None, tables)`` — the
        classic full-width path.
        """
        from repro.latemat import thin_for_transfer
        from repro.query.plan import needed_wire_columns

        key = (query.hdfs_join_key if side == "hdfs"
               else query.db_join_key)
        store = thin_for_transfer(
            tables, key, needed=needed_wire_columns(query, side)
        )
        if store is None:
            return None, list(tables)
        return store, store.thin_tables()

    def _add_payload_fetch_phases(self, costing, trace, latemat_plan,
                                  gate, l_cross: bool = False,
                                  t_cross: bool = True) -> List[str]:
        """Emit ``payload_fetch_*`` phases for an executed stitch.

        ``gate`` is what the fetches stream from (typically the probe —
        matches are decided there); returns the gate the aggregate must
        wait on.  ``l_cross``/``t_cross`` say whether that side's
        payload store sits across the EDW<->HDFS boundary.
        """
        if latemat_plan is None or not latemat_plan.active():
            return list(gate)
        stitch = latemat_plan.stats
        fetch_names: List[str] = []
        sides = (
            ("payload_fetch_l", latemat_plan.l_store, l_cross,
             stitch.l_fetched_tuples, stitch.l_amplification),
            ("payload_fetch_t", latemat_plan.t_store, t_cross,
             stitch.t_fetched_tuples, stitch.t_amplification),
        )
        for name, store, cross, fetched, amplification in sides:
            if store is None:
                continue
            row_bytes = store.payload_row_bytes()
            trace.add(name, "transfer" if cross else "shuffle",
                      costing.payload_fetch_seconds(
                          fetched, row_bytes,
                          amplification=amplification,
                          cross_cluster=cross,
                      ),
                      streams_from=list(gate),
                      description="batched stitch: fetch surviving "
                                  f"{name[-1].upper()} payloads "
                                  f"(x{amplification:.2f} page "
                                  "amplification)",
                      tuples=fetched,
                      volume_bytes=fetched * row_bytes * amplification)
            fetch_names.append(name)
        return fetch_names or list(gate)

    def _memory_budget_rows(self, warehouse) -> float:
        """Per-worker build-side memory limit at data-plane scale."""
        budget = warehouse.config.jen_memory_budget_rows
        if budget <= 0:
            return 0.0
        return budget * warehouse.config.scale

    # ------------------------------------------------------------------
    # Skew plane (shared by the shuffle-using algorithms)
    # ------------------------------------------------------------------
    def _effective_shuffle_skew(self, warehouse, costing, shuffled,
                                hot_keys) -> float:
        """The shuffle-skew multiplier this run's trace should pay.

        ``hot_keys is None`` means skew handling is off — pay the
        configured analytic factor exactly as before.  With handling on
        (even when detection found nothing hot) the hybrid shuffle ran,
        so the factor is capped at the *measured* receiver balance.
        """
        configured = max(1.0, warehouse.config.shuffle_skew)
        if hot_keys is None:
            return configured
        return costing.effective_shuffle_skew(
            configured, hybrid=True, measured=shuffled.balance_factor()
        )

    def _record_hot_shuffle(self, stats: JoinStats, trace, hot_keys,
                            shuffled) -> None:
        """Account the hybrid shuffle's detection and L-side spread."""
        trace.metadata["shuffle_partition_rows"] = [
            table.num_rows for table in shuffled.per_destination
        ]
        if hot_keys is None:
            return
        stats.hot_keys_detected = float(len(hot_keys))
        stats.hot_tuples_rerouted = float(shuffled.hot_tuples)

    def _add_steal_and_build_phases(self, costing, trace,
                                    stats: JoinStats, join_stats,
                                    shuffled, row_bytes: float,
                                    shuffle_skew: float,
                                    description: str) -> None:
        """Emit ``work_steal`` (if any) and ``hash_build`` phases.

        Called *after* the local joins ran so the build can be priced
        with the post-steal balance: stolen fragments move first (a
        transfer overlapped with the shuffle), then every worker builds
        its now-balanced share.  Without stealing this emits exactly
        the pre-skew-plane ``hash_build`` phase.
        """
        build_gate = ["jen_shuffle"]
        build_skew = shuffle_skew
        if join_stats.stolen_tuples > 0:
            stats.stolen_tuples = float(join_stats.stolen_tuples)
            trace.add("work_steal", "shuffle",
                      costing.work_steal_seconds(
                          join_stats.stolen_tuples, row_bytes
                      ),
                      streams_from=["jen_shuffle"],
                      description="re-deal straggler join fragments to "
                                  "idle workers",
                      tuples=join_stats.stolen_tuples,
                      volume_bytes=join_stats.stolen_tuples * row_bytes)
            build_gate = ["jen_shuffle", "work_steal"]
            build_skew = min(
                build_skew, max(1.0, join_stats.post_steal_balance)
            )
        trace.add("hash_build", "cpu",
                  costing.hash_build_seconds(
                      shuffled.tuples_shuffled, skew=build_skew
                  ),
                  streams_from=build_gate,
                  description=description,
                  tuples=shuffled.tuples_shuffled)
        if join_stats.per_slot_loads is not None:
            trace.metadata["join_slot_loads"] = list(
                join_stats.per_slot_loads
            )

    def _add_spill_phase(self, costing, trace, stats: JoinStats,
                         join_stats, row_bytes: float, gate):
        """Record a spill phase if the local joins fragmented.

        Returns the gate the probe phase must wait on.
        """
        if join_stats.spilled_tuples <= 0:
            return gate
        stats.spilled_tuples = join_stats.spilled_tuples
        trace.add("spill_io", "disk",
                  costing.jen_spill_seconds(
                      join_stats.spilled_tuples, row_bytes
                  ),
                  after=list(gate),
                  description=f"Grace-hash spill "
                              f"({join_stats.max_fragments} fragments)",
                  tuples=join_stats.spilled_tuples)
        return ["spill_io"]

    # The three steps every algorithm shares: filtering T locally,
    # building/multicasting BF_DB, and the distributed HDFS scan.  Keeping
    # them here guarantees all algorithms price them identically.

    def _run_db_filter(self, warehouse, query: HybridQuery, costing, trace,
                       stats: JoinStats, description: str
                       ) -> List[Table]:
        """Step 1 on the database: local predicates + projection on T."""
        database = warehouse.database
        t_meta = database.table_meta(query.db_table)
        stats.db_rows_scanned = t_meta.num_rows
        banked = adaptive_hooks.banked_db_filter(query.db_table)
        if banked is not None:
            # A switched-away plan already materialised T' for this
            # query; the data plane is deterministic, so the partitions
            # are bit-identical to a re-run and cost nothing here.
            t_parts, matched = banked
            trace.add("db_filter", "db_scan", 0.0,
                      after=["startup"],
                      description=description
                      + " (reused T' banked before the switch)",
                      tuples=matched)
            adaptive_hooks.checkpoint("t_prime_built")
            return t_parts
        t_parts, worker_stats = database.filter_project(
            query.db_table, query.db_predicate, list(query.db_projection)
        )
        raw_t_bytes = t_meta.num_rows * t_meta.schema.row_width()
        matched = sum(s.rows_out for s in worker_stats)
        index_available = database.workers[0].find_covering_index(
            query.db_table, list(query.db_predicate.columns())
        ) is not None
        adaptive_hooks.bank_db_filter(query.db_table, t_parts, matched)
        trace.add("db_filter", "db_scan",
                  costing.db_table_scan_seconds(
                      raw_t_bytes, matched, index_available
                  ),
                  after=["startup"],
                  description=description,
                  volume_bytes=raw_t_bytes,
                  tuples=matched)
        adaptive_hooks.checkpoint("t_prime_built")
        return t_parts

    def _run_bf_db(self, warehouse, query: HybridQuery, costing, trace,
                   stats: JoinStats):
        """Build BF_DB (index-only when possible) and multicast it."""
        bank_key = (query.db_table, query.db_join_key,
                    warehouse.config.bloom_bits())
        banked = adaptive_hooks.banked_bloom(bank_key)
        if banked is not None:
            # BF_DB built by a switched-away plan: the same bits would
            # come out of a rebuild, so reuse the object (its invariant
            # shadow keys included) and charge nothing for the build.
            bloom_result = banked
            build_seconds = 0.0
            build_description = "reuse BF_DB banked before the switch"
        else:
            bloom_result = warehouse.database.build_global_bloom(
                query.db_table,
                query.db_predicate,
                query.db_join_key,
                num_bits=warehouse.config.bloom_bits(),
                num_hashes=warehouse.config.bloom.num_hashes,
            )
            adaptive_hooks.bank_bloom(bank_key, bloom_result)
            build_seconds = costing.db_bloom_build_seconds(
                bloom_result.rows_accessed * 16.0,
                bloom_result.keys_added,
                bloom_result.index_only,
            )
            build_description = (
                "local BF build "
                + ("(index-only)" if bloom_result.index_only
                   else "(table scan)")
                + " + OR-merge"
            )
        trace.add("bf_db_build", "bloom", build_seconds,
                  after=["startup"],
                  description=build_description)
        trace.add("bf_db_send", "bloom",
                  costing.bloom_to_jen_seconds(),
                  after=["bf_db_build"],
                  description="multicast BF_DB to JEN workers")
        stats.bloom_bytes_moved += (
            costing.bloom_bytes() * warehouse.jen.num_workers
        )
        return bloom_result.bloom

    def _run_hdfs_scan(self, warehouse, query: HybridQuery, costing, trace,
                       stats: JoinStats, gate, db_bloom=None,
                       build_hdfs_bloom: bool = False):
        """Distributed scan of L through the JEN process pipeline."""
        scan = warehouse.jen.distributed_scan(
            query, db_bloom=db_bloom, build_hdfs_bloom=build_hdfs_bloom
        )
        stats.hdfs_rows_scanned = scan.stats.rows_scanned
        stats.hdfs_stored_bytes_scanned = scan.stats.stored_bytes_scanned
        stats.hdfs_rows_after_predicates = scan.stats.rows_after_predicates
        stats.hdfs_rows_after_bloom = scan.stats.rows_after_bloom
        stats.hdfs_rows_discarded += scan.stats.rows_discarded
        meta = warehouse.hdfs.table_meta(query.hdfs_table)
        total_blocks = scan.stats.local_blocks + scan.stats.remote_blocks
        remote_fraction = (
            scan.stats.remote_blocks / total_blocks if total_blocks else 0.0
        )
        trace.add("hdfs_scan", "hdfs_scan",
                  costing.hdfs_scan_seconds(
                      scan.stats.stored_bytes_scanned,
                      scan.stats.rows_scanned,
                      meta.format_name,
                      remote_fraction=remote_fraction,
                  ),
                  after=list(gate),
                  description=f"scan L ({meta.format_name}): predicates, "
                              "projection"
                              + (", BF_DB" if db_bloom is not None else "")
                              + (", build BF_H" if build_hdfs_bloom
                                 else ""),
                  volume_bytes=scan.stats.stored_bytes_scanned,
                  tuples=scan.stats.rows_scanned)
        return scan


#: Phase name -> (bytes-shipped category, crosses the EDW<->HDFS
#: boundary).  Stitch phases decide the boundary per run from their
#: kind (``transfer`` = cross-cluster, ``shuffle`` = intra-HDFS).
_BYTES_SHIPPED_CATEGORY: Dict[str, Tuple[str, bool]] = {
    "db_export": ("export", True),
    "db_broadcast": ("export", True),
    "db_send_once": ("export", True),
    "hdfs_to_db": ("export", True),
    "jen_shuffle": ("shuffle", False),
    "db_internal_shuffle": ("shuffle", False),
    "jen_hot_relay": ("relay", False),
    "jen_rebroadcast": ("relay", False),
    "work_steal": ("relay", False),
    "payload_fetch_l": ("stitch", False),
    "payload_fetch_t": ("stitch", False),
}


def classify_bytes_shipped(trace: Trace) -> Dict[str, float]:
    """Per-category row bytes the trace's transfer phases moved.

    Data-plane-scale bytes (multiply by ``scale_up`` for paper scale;
    ratios are scale-free, which is what the bench gate compares).
    ``cross_cluster`` totals everything that crossed the EDW<->HDFS
    boundary — the number the paper's algorithms exist to shrink.
    """
    shipped = {"export": 0.0, "shuffle": 0.0, "relay": 0.0, "stitch": 0.0}
    cross_cluster = 0.0
    for phase in trace:
        entry = _BYTES_SHIPPED_CATEGORY.get(phase.name)
        if entry is None:
            continue
        category, crosses = entry
        if category == "stitch":
            crosses = phase.kind == "transfer"
        shipped[category] += phase.volume_bytes
        if crosses:
            cross_cluster += phase.volume_bytes
    shipped["cross_cluster"] = cross_cluster
    shipped["total"] = (shipped["export"] + shipped["shuffle"]
                        + shipped["relay"] + shipped["stitch"])
    return shipped


#: Registry of available algorithms by name.
ALGORITHMS: Dict[str, Type[JoinAlgorithm]] = {}


def register_algorithm(cls: Type[JoinAlgorithm]) -> Type[JoinAlgorithm]:
    """Class decorator adding an algorithm to the registry."""
    if cls.name in ALGORITHMS:
        raise JoinError(f"duplicate algorithm name {cls.name!r}")
    ALGORITHMS[cls.name] = cls
    return cls


def valid_algorithm_names() -> List[str]:
    """Every name :func:`algorithm_by_name` accepts, sorted.

    The plain registry names plus the paper's ``(BF)`` convention for
    the algorithms that take an optional Bloom filter.
    """
    names = list(ALGORITHMS)
    for name, cls in ALGORITHMS.items():
        if "use_bloom" in inspect.signature(cls).parameters:
            names.append(f"{name}(BF)")
    return sorted(names)


def algorithm_by_name(name: str, **kwargs) -> JoinAlgorithm:
    """Instantiate a registered algorithm.

    Accepts the plain names plus the paper's ``(BF)`` suffix convention:
    ``"repartition(BF)"`` and ``"db(BF)"`` enable the Bloom filter on the
    corresponding base algorithm.  Unknown names — including a ``(BF)``
    suffix on an algorithm with no optional Bloom filter — raise
    :class:`~repro.errors.JoinError` listing every valid name.
    """
    requested = name
    if name.endswith("(BF)"):
        base = name[:-4].rstrip()
        kwargs.setdefault("use_bloom", True)
        name = base
    try:
        cls = ALGORITHMS[name]
    except KeyError:
        raise JoinError(
            f"unknown join algorithm {requested!r}; "
            f"valid names: {', '.join(valid_algorithm_names())}"
        ) from None
    try:
        return cls(**kwargs)
    except TypeError:
        raise JoinError(
            f"join algorithm {requested!r} does not accept "
            f"{sorted(kwargs)}; valid names: "
            f"{', '.join(valid_algorithm_names())}"
        ) from None
