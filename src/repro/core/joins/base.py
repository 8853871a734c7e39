"""Join algorithm interface, statistics and results.

A :class:`JoinAlgorithm` takes a :class:`~repro.warehouse.HybridWarehouse`
and a :class:`~repro.query.query.HybridQuery`, executes the real data
plane, prices a :class:`~repro.sim.trace.Trace`, replays it, and returns
a :class:`JoinResult` bundling the answer, the movement statistics (the
paper's Table 1 numbers) and the simulated timing (the paper's figures).
A :class:`JoinRun` carries one run through the stages an algorithm's
``run`` composes, in the order of its steps in the paper, under the
:class:`ExecutionContext` the caller handed the run.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, fields
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Type

from repro.errors import JoinError
from repro.faults import FaultInjector
from repro.kernels.joinindex import JoinBuildIndex
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
    hdfs_rows_after_predicates: float = 0.0
    hdfs_rows_after_bloom: float = 0.0
    #: Tuples entering the JEN-to-JEN shuffle (Table 1, column 1).
    hdfs_tuples_shuffled: float = 0.0
    #: Database tuples shipped to the HDFS side (Table 1, column 2).
    db_tuples_sent: float = 0.0
    db_rows_scanned: float = 0.0
    #: Bloom filter bytes moved, already at paper scale.
    bloom_bytes_moved: float = 0.0
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
    #: Build + probe rows re-dealt across workers by work stealing.
    stolen_tuples: float = 0.0

    def scaled(self, multiplier: float) -> "JoinStats":
        """Counts multiplied up to paper scale (Bloom bytes unchanged)."""
        unscaled = {"bloom_bytes_moved", "hot_keys_detected"}
        values: Dict[str, float] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            values[spec.name] = (
                value if spec.name in unscaled else value * multiplier
            )
        return JoinStats(**values)


@dataclass
class JoinResult:
    """Everything one algorithm run produced: the one per-run record.

    What a plane observed rides here as a typed field, ``None`` when
    the plane did not run; ``trace.metadata`` carries only the
    ``bytes_shipped`` classification.
    """

    algorithm: str
    result: Table
    stats: JoinStats
    trace: Trace
    timing: TimingResult
    scale_up: float
    #: Build + probe rows per slot of the JEN-side local join, after any
    #: work stealing (the repartition-style joins only).
    join_slot_loads: Optional[List[int]] = None
    #: What the adaptive wrapper observed and decided
    #: (:class:`repro.adaptive.algorithm.AdaptiveReport`).
    adaptive: Optional[object] = None
    #: The sampled run's policy, estimate and refinement stream
    #: (:class:`repro.approx.algorithm.ApproxReport`).
    approx: Optional[object] = None

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


@dataclass(frozen=True)
class ExecutionContext:
    """Everything one run applies beyond its query, for that run alone.

    (The paper's ``read_hdfs`` UDF, too, ships it with each request.)
    ``observers`` (:class:`repro.observer.RunObserver`) watch the run;
    ``bloom_builder`` replaces ``ParallelDatabase.build_global_bloom``
    and ``index_for`` builds the local join's index (the query service
    fills both from its caches); ``faults`` injects the failures of a
    :class:`~repro.faults.FaultPlan` into the run, and its recovery
    lands on the run's trace.
    """

    observers: Tuple = ()
    bloom_builder: Optional[Callable] = None
    index_for: Callable = JoinBuildIndex
    faults: Optional[FaultInjector] = None


class JoinAlgorithm:
    """Base class: one hybrid-warehouse join strategy."""

    #: Registry / display name (e.g. ``"zigzag"``).
    name: str = "base"

    @property
    def display_name(self) -> str:
        """Paper-style label; a variant (``db(BF)``) overrides it."""
        return self.name

    def run(self, warehouse, query: HybridQuery,
            context: Optional[ExecutionContext] = None) -> JoinResult:
        """Execute the algorithm end to end under ``context``."""
        raise NotImplementedError

    def _costing(self, warehouse) -> JoinCosting:
        return JoinCosting(warehouse.config, warehouse.topology)

    def _finish(self, warehouse, result: Table, stats: JoinStats,
                trace: Trace, **planes) -> JoinResult:
        """Replay the trace and assemble the result object; ``planes``
        are the record's plane fields."""
        trace.metadata["bytes_shipped"] = classify_bytes_shipped(trace)
        timing = replay_trace(trace)
        return JoinResult(
            algorithm=self.name,
            result=result,
            stats=stats,
            trace=trace,
            timing=timing,
            scale_up=1.0 / warehouse.config.scale,
            **planes,
        )


class JoinRun:
    """One run of one algorithm: what every stage reads and writes.

    Opening a run opens its view of the JEN cluster
    (:class:`~repro.jen.engine.RunCluster`, under the context's fault
    injector) and prices its ``startup`` phase.  Every stage reads the
    cluster's size off that view, so a worker a crash took out of the
    run is missing from the rest of the run.  The methods below are
    the steps most algorithms share: filtering T locally, building and
    multicasting BF_DB, and the distributed HDFS scan.  The algorithm
    modules add the other stages
    (:func:`~repro.core.joins.repartition.shuffle_l`,
    :func:`~repro.core.joins.repartition.ship_t`,
    :func:`~repro.core.joins.repartition.jen_tail`,
    :func:`~repro.core.joins.zigzag.bf_h`,
    :func:`~repro.core.joins.db_side.edw_tail`).  Each phase is priced
    at one place only, so every algorithm prices a step identically.

    The context's ``observers`` (:class:`repro.observer.RunObserver`)
    watch the run: it hands each its trace, T′'s counts, checkpoints and
    Bloom filters and banks artifacts with them; the HDFS scans feed
    each per block, and the data-plane steps hand each their
    invariants.
    """

    def __init__(self, algorithm: JoinAlgorithm, warehouse,
                 query: HybridQuery,
                 startup: str = "UDF invocation, DB<->JEN connections",
                 context: Optional[ExecutionContext] = None):
        self.algorithm = algorithm
        self.warehouse = warehouse
        self.query = query
        self.context = context or ExecutionContext()
        self.observers = self.context.observers
        self.cluster = warehouse.jen.open_cluster(self.context.faults)
        #: Workers up when the run opened, so when its scan started: the
        #: shuffle plans its hot-key split for them, and a crash only
        #: caps the fan-outs at the survivors.
        self.planned_workers = self.cluster.num_workers
        self.costing = algorithm._costing(warehouse)
        self.stats = JoinStats()
        self.trace = Trace(label=algorithm.display_name)
        for observer in self.observers:
            observer.on_run_begin(self.trace)
        self.trace.add("startup", "latency", self.costing.startup_seconds(),
                       description=startup)

    def finish(self, result: Table, **planes) -> JoinResult:
        """Replay the trace; the run's :class:`JoinResult`, carrying
        ``planes`` (its plane fields).

        Under a fault injector, the recovery actions the engine
        accumulated (re-scans, retries, speculation) are materialised as
        ``recovery`` phases first, so the replayed makespan pays for
        them and the Gantt timeline shows them.
        """
        if self.cluster.faults is not None:
            self.cluster.faults.charge_trace(self.trace)
        return self.algorithm._finish(self.warehouse, result, self.stats,
                                      self.trace, **planes)

    def db_filter(self) -> List[Table]:
        """Step 1 on the database: local predicates + projection on T."""
        query, trace = self.query, self.trace
        description = "apply local predicates + projection on T"
        database = self.warehouse.database
        t_meta = database.table_meta(query.db_table)
        self.stats.db_rows_scanned = t_meta.num_rows
        banked = _first(observer.banked_db_filter(query.db_table)
                        for observer in self.observers)
        if banked is not None:
            # A switched-away plan already materialised T' for this
            # query; the data plane is deterministic, so the partitions
            # are bit-identical to a re-run and cost nothing here.
            t_parts, matched = banked
            seconds, raw_t_bytes = 0.0, 0.0
            description += " (reused T' banked before the switch)"
        else:
            t_parts, worker_stats = database.filter_project(
                query.db_table, query.db_predicate,
                list(query.db_projection)
            )
            raw_t_bytes = t_meta.num_rows * t_meta.schema.row_width()
            matched = sum(s.rows_out for s in worker_stats)
            index_available = database.workers[0].find_covering_index(
                query.db_table, list(query.db_predicate.columns())
            ) is not None
            for observer in self.observers:
                observer.on_db_filter(
                    sum(s.rows_scanned for s in worker_stats), matched)
                observer.bank_db_filter(query.db_table, t_parts, matched)
            seconds = self.costing.db_table_scan_seconds(
                raw_t_bytes, matched, index_available
            )
        trace.add("db_filter", "db_scan", seconds,
                  after=["startup"],
                  description=description,
                  volume_bytes=raw_t_bytes,
                  tuples=matched)
        for observer in self.observers:
            observer.on_checkpoint("t_prime_built")
        return t_parts

    def bf_db(self, t_parts: List[Table]):
        """Build BF_DB over T′ (index-only when possible), multicast it."""
        query, costing = self.query, self.costing
        config = self.warehouse.config
        bank_key = (query.db_table, query.db_join_key, config.bloom_bits())
        banked = _first(observer.banked_bloom(bank_key)
                        for observer in self.observers)
        if banked is not None:
            # BF_DB built by a switched-away plan: the same bits would
            # come out of a rebuild, so reuse the object and charge
            # nothing for the build.
            bloom_result = banked
            build_seconds = 0.0
            build_description = "reuse BF_DB banked before the switch"
        else:
            build = (self.context.bloom_builder
                     or self.warehouse.database.build_global_bloom)
            bloom_result = build(
                query.db_table,
                query.db_predicate,
                query.db_join_key,
                num_bits=config.bloom_bits(),
                num_hashes=config.bloom.num_hashes,
            )
            for observer in self.observers:
                observer.bank_bloom(bank_key, bloom_result)
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
        self.trace.add("bf_db_build", "bloom", build_seconds,
                       after=["startup"],
                       description=build_description)
        self.trace.add("bf_db_send", "bloom",
                       costing.bloom_to_jen_seconds(),
                       after=["bf_db_build"],
                       description="multicast BF_DB to JEN workers")
        self.stats.bloom_bytes_moved += (
            costing.bloom_bytes() * self.cluster.num_workers
        )
        for observer in self.observers:
            observer.on_bloom_built(bloom_result.bloom, [
                part.column(query.db_join_key) for part in t_parts])
        return bloom_result.bloom

    def hdfs_scan(self, db_bloom=None, build_hdfs_bloom: bool = False,
                  gate=None):
        """Distributed scan of L through the JEN process pipeline.

        The scan waits for ``gate``: by default the startup, and the
        BF_DB multicast when it applies BF_DB.
        """
        if gate is None:
            gate = (["startup"] if db_bloom is None
                    else ["startup", "bf_db_send"])
        query, stats = self.query, self.stats
        scan = self.warehouse.jen.distributed_scan(
            query, self.cluster, db_bloom=db_bloom,
            build_hdfs_bloom=build_hdfs_bloom, observers=self.observers,
        )
        if build_hdfs_bloom:
            for observer in self.observers:
                observer.on_bloom_built(scan.hdfs_bloom, [
                    wire.column(query.hdfs_join_key)
                    for wire in scan.wire_tables])
        stats.hdfs_rows_scanned = scan.stats.rows_scanned
        stats.hdfs_rows_after_predicates = scan.stats.rows_after_predicates
        stats.hdfs_rows_after_bloom = scan.stats.rows_after_bloom
        stats.hdfs_rows_discarded += scan.stats.rows_discarded
        format_name = self.warehouse.hdfs.table_meta(
            query.hdfs_table).format_name
        add_scan_phase(self.trace, self.costing, "hdfs_scan", scan.stats,
                       format_name, gate,
                       f"scan L ({format_name}): predicates, projection"
                       + (", BF_DB" if db_bloom is not None else "")
                       + (", build BF_H" if build_hdfs_bloom else ""))
        return scan


def _first(artifacts: Iterable):
    """The first artifact an observer's bank kept (``None`` if none)."""
    return next((found for found in artifacts if found is not None), None)


def add_scan_phase(trace: Trace, costing: JoinCosting, name: str, scan,
                   format_name: str, gate, description: str) -> None:
    """Price one distributed scan of L as the phase ``name``.

    ``scan`` is the scan's :class:`~repro.jen.worker.ScanStats`: the
    stored bytes and rows it read, and the share of its blocks read
    off a remote replica, which pays the NIC-capped rate.  The phase
    waits for ``gate``.
    """
    blocks = scan.local_blocks + scan.remote_blocks
    remote_fraction = scan.remote_blocks / blocks if blocks else 0.0
    trace.add(name, "hdfs_scan",
              costing.hdfs_scan_seconds(scan.stored_bytes_scanned,
                                        scan.rows_scanned, format_name,
                                        remote_fraction),
              after=list(gate), description=description,
              volume_bytes=scan.stored_bytes_scanned,
              tuples=scan.rows_scanned)


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
    ratios are scale-free).
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
