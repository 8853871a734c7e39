"""The Jen facade: the whole HDFS-side engine behind one object.

Join algorithms talk to this class: it wires the coordinator and the
workers, runs distributed scans (optionally with a pushed-down database
Bloom filter and/or a BF_H build), executes the agreed-hash shuffle, and
finishes local joins with partial plus final aggregation.

Each run works on its own :class:`RunCluster`: the workers the
coordinator had up when the run opened it, and the run's fault
injector (``ExecutionContext.faults``).  Under a
:class:`~repro.faults.FaultInjector` the engine handles mid-query
failures.  Scans run as a work queue — when an injected crash kills a
worker, it leaves the run's view, its partial output is discarded and
the coordinator deals its blocks to the survivors; shuffle-time crashes
re-produce the victim's filtered rows on a survivor; message drops
retry with backoff and re-delivered partitions are suppressed by the
receivers.  Results stay bit-identical to the fault-free run while
every recovery is charged on the trace.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.config import HybridConfig
from repro.core.bloom import BloomFilter
from repro.errors import CatalogError, JoinError, WorkerCrashError
from repro.faults import CrashSignal, FaultInjector, ScanFaultHook
from repro.hdfs.filesystem import HdfsFileSystem, HdfsTableMeta
from repro.jen.coordinator import JenCoordinator
from repro.jen.exchange import ShuffleResult, shuffle
from repro.jen.worker import (
    FileSelection,
    JenWorker,
    ScanBatch,
    ScanRequest,
    ScanStats,
    finish_scan,
)
from repro.kernels.joinindex import JoinBuildIndex
from repro.latemat import LateMatPlan, StitchStats
from repro.relational.aggregates import merge_specs
from repro.relational.table import Table
from repro.query.plan import join_aggregate
from repro.query.query import HybridQuery

#: Hash seed of BF_H, the filter a scan builds over its surviving join
#: keys.  BF_DB is built with seed 7, so the two filters never agree on
#: positions.
BF_H_SEED = 11


@dataclass
class DistributedScanResult:
    """Per-worker wire tables plus merged statistics."""

    wire_tables: List[Table]
    stats: ScanStats
    #: BF_H over the join keys of every surviving row; ``None`` unless
    #: the scan was asked to build it.
    hdfs_bloom: Optional[BloomFilter] = None

    def global_bloom(self) -> BloomFilter:
        """BF_H, the filter zigzag step 4 sends to the database."""
        if self.hdfs_bloom is None:
            raise JoinError("scan was not run with a BF_H build")
        return self.hdfs_bloom


@dataclass
class LocalJoinStats:
    """Volume accounting of the distributed local-join stage."""

    join_output_tuples: int = 0
    result_rows: int = 0
    #: Tuples written to and re-read from disk by spilling workers
    #: (Grace-hash fragmenting; 0 when everything fits in memory).
    spilled_tuples: int = 0
    #: Largest fragment count any worker needed.
    max_fragments: int = 1
    #: Build + probe rows re-dealt to other workers by work stealing.
    stolen_tuples: int = 0
    #: max/mean per-worker join load after stealing (1.0 when stealing
    #: never armed or never triggered).
    post_steal_balance: float = 1.0
    #: Per-worker build + probe rows after any stealing (the bench
    #: derives worker-finish spread from it).
    per_slot_loads: Optional[List[int]] = None
    #: Late-materialization stitch accounting
    #: (:class:`repro.latemat.StitchStats`); ``None`` when the join ran
    #: on full-width parts.
    stitch: Optional[StitchStats] = None


@dataclass
class RunCluster:
    """One run's view of the JEN cluster.

    ``live`` holds the ids of the workers the coordinator's registry
    had up when the run opened it (paper Section 4.1: the coordinator
    tracks which workers are up); ``faults`` is the run's
    :class:`~repro.faults.FaultInjector`, ``None`` for a fault-free run.
    A crash the injector fires removes its victim from this view alone:
    every stage of the run after it sees the smaller cluster, while a
    run on another thread, and every later run, sees the registry's.
    """

    live: List[int]
    faults: Optional[FaultInjector] = None

    @property
    def num_workers(self) -> int:
        """Number of workers up for this run."""
        return len(self.live)


class Jen:
    """Coordinator + workers of the HDFS-side execution engine.

    The coordinator's registry is the one membership record; each run
    works on its own :class:`RunCluster`, so nothing here changes while
    a query runs.
    """

    def __init__(self, filesystem: HdfsFileSystem, config: HybridConfig,
                 locality: bool = True):
        self.filesystem = filesystem
        self.config = config
        num_workers = config.cluster.jen_workers()
        self.coordinator = JenCoordinator(
            filesystem, num_workers, locality=locality
        )
        #: One stateless worker per configured id, up or not.
        self._workers = tuple(
            JenWorker(worker_id, filesystem)
            for worker_id in range(num_workers)
        )

    @property
    def num_workers(self) -> int:
        """Number of JEN workers the registry has up."""
        return len(self.coordinator.live_workers())

    def open_cluster(self, faults: Optional[FaultInjector] = None
                     ) -> RunCluster:
        """A new run's view: the registry's live workers and ``faults``."""
        return RunCluster(self.coordinator.live_workers(), faults)

    def fail_worker(self, worker_id: int) -> None:
        """Take one worker out of service (paper Section 4.1: the
        coordinator manages worker state "so that workers know which
        other workers are up and running").

        Runs opened afterwards plan their scans over the survivors;
        blocks whose only local replica sat on the dead node are read
        remotely.  A run already in flight keeps the view it opened.
        """
        live = self.coordinator.live_workers()
        if worker_id not in live:
            raise JoinError(f"no live JEN worker {worker_id}")
        if len(live) == 1:
            raise JoinError("cannot fail the last JEN worker")
        self.coordinator.mark_worker(worker_id, up=False)

    # ------------------------------------------------------------------
    def distributed_scan(
        self,
        query: HybridQuery,
        cluster: RunCluster,
        db_bloom: Optional[BloomFilter] = None,
        build_hdfs_bloom: bool = False,
        observers: Tuple = (),
    ) -> DistributedScanResult:
        """Scan the query's HDFS table on every worker of ``cluster``.

        ``db_bloom`` is the pushed-down database Bloom filter;
        ``build_hdfs_bloom`` additionally populates BF_H with the join
        keys that survive the scan (the zigzag join's BF_H build).
        """
        return self.scan_with_request(
            query.hdfs_table,
            ScanRequest.from_query(query),
            cluster,
            db_bloom=db_bloom,
            build_hdfs_bloom=build_hdfs_bloom,
            observers=observers,
        )

    def scan_with_request(
        self,
        table_name: str,
        request: ScanRequest,
        cluster: RunCluster,
        db_bloom: Optional[BloomFilter] = None,
        build_hdfs_bloom: bool = False,
        observers: Tuple = (),
    ) -> DistributedScanResult:
        """Query-independent distributed scan (the read_hdfs path).

        ``observers`` watch the scan, in order: each hears its block
        count (``on_scan_begin``) and every scanned block
        (``on_scan_block``, see :func:`~repro.jen.worker.finish_scan`),
        and may raise out of the scan to abandon it.
        """
        if cluster.faults is not None:
            cluster.faults.check_abort("scan")
        return self._run_scan_queue(
            self.coordinator.table_meta(table_name), request, db_bloom,
            build_hdfs_bloom, cluster, observers,
        )

    def scan_sampled_blocks(
        self,
        table_name: str,
        request: ScanRequest,
        blocks,
        cluster: RunCluster,
        db_bloom: Optional[BloomFilter] = None,
        observers: Tuple = (),
    ):
        """Scan individual blocks one at a time, yielding per-block wire
        tables (the approximate tier's morsel stream).

        Each block runs on the worker owning its primary replica (local
        read when the sampled node is a live worker, remote otherwise) —
        the same locality rule the full scan's scheduler applies, so a
        sampled scan's per-block cost profile matches a full scan's.
        Yields ``(wire_table, ScanStats)`` per block; the consumer
        decides when to stop drawing, which is what makes progressive
        refinement possible.  The predicate runs over each drawn
        block's rows alone, so a stream that stops early evaluates no
        more rows than it read.  ``observers`` hear each block (and
        check its Bloom step) as in the full scan.

        The stream has no work-queue recovery, so the approximate tier
        refuses a run with a fault plan before it opens one.
        """
        meta = self.coordinator.table_meta(table_name)
        live = cluster.live

        def owner(block):
            for node_id in block.replicas:
                if node_id in live:
                    return self._workers[node_id]
            return self._workers[live[block.block_id % len(live)]]

        for block in blocks:
            yield owner(block).scan_filter_project(
                meta, [block], request, db_bloom=db_bloom,
                observers=observers,
            )

    def _run_scan_queue(
        self,
        meta: HdfsTableMeta,
        request: ScanRequest,
        db_bloom: Optional[BloomFilter],
        build_hdfs_bloom: bool,
        cluster: RunCluster,
        observers: Tuple,
    ) -> DistributedScanResult:
        """The scan as a work queue of (worker, blocks) tasks.

        Fault-free this degenerates to one task per live worker, exactly
        the original single-pass scan.  Under the run's fault injector,
        a crashing worker's task raises mid-loop: the worker leaves the
        run's view, its partial output is discarded and its blocks come
        back as recovery tasks on the survivors, so every block is
        scanned into the result exactly once.

        The predicate runs once, over the whole file
        (:class:`~repro.jen.worker.FileSelection`), and each task reads
        its blocks on its worker, counting their survivors.  Once the
        queue drains, :func:`~repro.jen.worker.finish_scan` gathers
        every task's survivors in task order and runs one Bloom step
        over their join keys, into one BF_H — the OR of per-worker
        filters is the filter of the union, so this is bit for bit what
        per-worker filters merged at a designated worker would hold —
        then one filter, derive and projection.  Each task's wire table
        is a slice of the result; task order is also the order the
        per-block observers see.
        """
        live, injector = cluster.live, cluster.faults
        assignment = self.coordinator.plan_scan(meta.name, live)
        selection = FileSelection.evaluate(self.filesystem, meta, request)
        tasks = deque(
            (worker_id, list(assignment.blocks_for(worker_id)))
            for worker_id in live
        )
        for observer in observers:
            observer.on_scan_begin(
                sum(len(blocks) for _worker, blocks in tasks))
        batches: List[Tuple[int, ScanBatch]] = []
        merged = ScanStats()
        while tasks:
            worker_id, blocks = tasks.popleft()
            if worker_id not in live:
                # The owner of this recovery task died after it was
                # queued (a second crash event); deal its blocks out
                # again.
                self._requeue(worker_id, blocks, tasks, live)
                continue
            hook = None
            if injector is not None:
                crash_at = injector.scan_crash_block(worker_id, len(blocks))
                if crash_at is not None:
                    if not blocks:
                        self._scan_crash(worker_id, blocks, ScanStats(),
                                         cluster, tasks, merged)
                        continue
                    hook = ScanFaultHook(crash_at)
            try:
                batch = self._workers[worker_id].read_batch(
                    blocks, selection, faults=hook)
            except CrashSignal as signal:
                self._scan_crash(worker_id, blocks, signal.stats, cluster,
                                 tasks, merged)
                continue
            batches.append((worker_id, batch))
            merged = merged.merge(batch.stats)

        hdfs_bloom = None
        if build_hdfs_bloom:
            hdfs_bloom = BloomFilter(
                self.config.bloom_bits(),
                self.config.bloom.num_hashes,
                seed=BF_H_SEED,
            )
        wires = finish_scan(
            selection, [batch for _worker, batch in batches], request,
            db_bloom, hdfs_bloom, observers,
        )
        pieces: Dict[int, List[Table]] = {worker_id: [] for worker_id in live}
        for (worker_id, _batch), wire in zip(batches, wires):
            pieces[worker_id].append(wire)
            merged.rows_after_bloom += wire.num_rows

        if injector is not None:
            self._record_stragglers(cluster)
        wire_tables = [Table.concat(pieces[worker_id]) for worker_id in live]
        return DistributedScanResult(
            wire_tables=wire_tables,
            stats=merged,
            hdfs_bloom=hdfs_bloom,
        )

    def _scan_crash(self, worker_id: int, blocks, partial: ScanStats,
                    cluster: RunCluster, tasks,
                    merged: ScanStats) -> None:
        """Recover from a mid-scan crash (or raise if unrecoverable)."""
        survivors = cluster.num_workers - 1
        if survivors == 0:
            # The crash event has fired, so a service-plane retry of the
            # whole query runs fault-free.
            raise WorkerCrashError(
                f"worker {worker_id} crashed during scan and no "
                "survivors remain",
                worker_id=worker_id, phase="scan",
                rows_lost=partial.rows_scanned,
            )
        cluster.live.remove(worker_id)
        # The partial batch dies with the worker before it reaches the
        # Bloom step (a worker crashes at most once, in its first task,
        # so it has no earlier batch either); the rescanned blocks
        # rebuild it on the survivors.
        merged.rows_discarded += partial.rows_scanned
        merged.blocks_reassigned += len(blocks)
        cluster.faults.record_scan_crash(
            worker_id, partial.rows_scanned, len(blocks), survivors
        )
        self._requeue(worker_id, blocks, tasks, cluster.live)

    def _requeue(self, dead_worker: int, blocks, tasks, live) -> None:
        """Deal a dead worker's blocks to the ``live`` workers as new
        tasks."""
        if blocks:
            tasks.extend(self.coordinator.reassign_blocks(
                dead_worker, blocks, live))

    def _record_stragglers(self, cluster: RunCluster) -> None:
        """Account straggler slowdowns + speculative backups post-scan."""
        injector = cluster.faults
        for worker_id in cluster.live:
            factor = injector.slow_factor(worker_id)
            if factor <= 1.0:
                continue
            try:
                backup = self.coordinator.speculative_worker(
                    worker_id, cluster.live)
            except CatalogError:
                backup = None
            injector.record_straggler(worker_id, factor, backup)

    # ------------------------------------------------------------------
    def shuffle_by_key(self, wire_tables: List[Table], key: str,
                       cluster: RunCluster, hot_keys=None,
                       observers: Tuple = (),
                       probe_keys=None) -> ShuffleResult:
        """All-to-all shuffle of the wire tables among ``cluster``'s
        workers on the agreed hash.

        Under the run's fault injector: workers crashing at shuffle time
        leave the run's view and lose their filtered rows, which a
        survivor re-produces (charged as a recovery re-scan) before the
        exchange runs over the remaining workers; individual messages go
        through retry/dedup delivery.

        A non-empty ``hot_keys`` (:class:`repro.skew.HotKeySet`)
        switches to the hybrid split: each hot key's rows are dealt
        round-robin across the key's destination set (capped at the
        surviving workers) instead of hashing onto one receiver, while
        the cold tail keeps the agreed hash.  Delivery — retries,
        dedup, exactly-once accounting — is identical either way; only
        the senders' destination assignments change.  ``observers``
        check the split and the delivery; ``probe_keys`` (T′'s join
        keys) let it deliver only the rows a probe can reach.
        """
        injector = cluster.faults
        wire_tables = list(wire_tables)
        if injector is not None:
            injector.check_abort("shuffle")
            if len(wire_tables) == cluster.num_workers:
                wire_tables = self._shuffle_crashes(wire_tables, cluster)
        per_destination, routed, kept, hot_tuples = \
            JenWorker.partition_for_exchange(
                wire_tables, key, cluster.num_workers, hot_keys, observers,
                probe_keys,
            )
        result = shuffle(per_destination, routed, kept, faults=injector,
                         observers=observers)
        result.hot_tuples = hot_tuples
        return result

    @staticmethod
    def _shuffle_crashes(wire_tables: List[Table],
                         cluster: RunCluster) -> List[Table]:
        """Kill shuffle-time crash victims and salvage their rows."""
        injector = cluster.faults
        for victim_id in injector.shuffle_crashes(list(cluster.live)):
            if cluster.num_workers == 1:
                raise WorkerCrashError(
                    f"worker {victim_id} crashed during shuffle and no "
                    "survivors remain",
                    worker_id=victim_id, phase="shuffle",
                    rows_lost=wire_tables[0].num_rows,
                )
            victim_wire = wire_tables.pop(cluster.live.index(victim_id))
            cluster.live.remove(victim_id)
            # The survivor re-runs the victim's scan share; in the
            # deterministic data plane that re-produces exactly the
            # victim's filtered rows, so attach them to the survivor.
            survivor_id = cluster.live[0]
            wire_tables[0] = Table.concat([wire_tables[0], victim_wire])
            injector.record_shuffle_crash(
                victim_id, victim_wire.num_rows, survivor_id
            )
        return wire_tables

    # ------------------------------------------------------------------
    def join_and_aggregate(
        self,
        l_parts: List[Table],
        t_parts: List[Table],
        query: HybridQuery,
        cluster: RunCluster,
        memory_budget_rows: float = 0.0,
        latemat_plan: Optional[LateMatPlan] = None,
        index_for=JoinBuildIndex,
        steal_threshold: Optional[float] = None,
        observers: Tuple = (),
        build_rows: Optional[List[int]] = None,
    ) -> Tuple[Table, LocalJoinStats]:
        """Local hash joins on every worker of ``cluster``, then the
        final aggregate.

        ``l_parts[i]`` is worker *i*'s build side (filtered HDFS rows it
        received), ``t_parts[i]`` its probe side (database rows that
        arrived addressed by the agreed hash).  The data plane joins
        every worker's rows — each spill or stolen fragment a unit of
        its own — in one :func:`~repro.query.plan.join_aggregate` call,
        whose result is the merge of the per-unit partials.

        ``memory_budget_rows`` is the per-worker in-memory build limit at
        the data-plane scale; workers whose build side exceeds it spill
        via Grace-hash fragmenting (:mod:`repro.jen.spill`).  Zero means
        unlimited — the paper's current JEN, which "requires that all
        data fit in memory".  A ``spill:x<f>`` event of the run's fault
        injector squeezes the budget to ``f`` times the largest build
        side.

        ``latemat_plan`` says which sides arrived as thin
        ``(key, rowid)`` tables; the stitch (prune + payload fetch) runs
        first, so every downstream path — spilling, stealing, fault
        recovery — operates on full rows exactly as the classic
        mode and the results are row-identical by construction.

        ``index_for(build_keys, band_values, slot_bounds)`` builds the
        join's index; ``steal_threshold`` arms work stealing (``None``:
        off); ``observers`` check every spill and steal fragmenting.
        ``build_rows[i]``, when the shuffle delivered only the rows a
        probe can reach, is the rows worker *i*'s build is priced at:
        spill plans, their budget and the slot loads read it.
        """
        injector = cluster.faults
        if injector is not None:
            injector.check_abort("join")
        if len(l_parts) != cluster.num_workers \
                or len(t_parts) != cluster.num_workers:
            raise JoinError(
                "join_and_aggregate needs one part per worker on both sides"
            )
        # The result merges the workers' partials, and AVG cannot merge
        # (the query layer decomposes it), however the rows fall.
        merge_specs(query.aggregates)
        priced = build_rows or [part.num_rows for part in l_parts]
        if injector is not None:
            # The probe-side partitions arrive over the DB->JEN transfer
            # channel; lost ones retry, duplicated ones are suppressed.
            for worker_id in cluster.live:
                injector.deliver("transfer", -1, worker_id)
            pressure = injector.spill_budget_rows(max(priced, default=0))
            if pressure > 0:
                memory_budget_rows = (
                    pressure if memory_budget_rows <= 0
                    else min(memory_budget_rows, pressure)
                )
        stitch_stats: Optional[StitchStats] = None
        if latemat_plan is not None and latemat_plan.active():
            l_parts, t_parts = latemat_plan.stitch(
                l_parts, t_parts, query.hdfs_join_key, query.db_join_key
            )
            stitch_stats = latemat_plan.stats
        # The build rows each worker was priced at but never received;
        # stitched L rows are what the stitch's exact semi-join leaves
        # of either.  Stealing re-deals what arrived, so it needs all.
        thin = stitch_stats is not None and latemat_plan.l_store is not None
        uncut = [0 if thin else rows - part.num_rows
                 for rows, part in zip(priced, l_parts)]
        if steal_threshold is not None and any(uncut):
            raise JoinError("work stealing needs every routed build row")
        from repro.jen.spill import fragment_tables, plan_spill

        stats = LocalJoinStats(stitch=stitch_stats)
        # One work unit per worker to start with; the skew plane may
        # fragment straggler units and re-deal the pieces, and a
        # spilling unit joins fragment by fragment.
        work_lists: List[List[Tuple[Table, Table]]] = [
            [(l_part, t_part)]
            for l_part, t_part in zip(l_parts, t_parts)
        ]
        self._steal_stragglers(work_lists, query, stats, steal_threshold,
                               observers)
        stats.per_slot_loads = [
            extra + sum(l_unit.num_rows + t_unit.num_rows
                        for l_unit, t_unit in units)
            for units, extra in zip(work_lists, uncut)
        ]
        join_units: List[Tuple[Table, Table]] = []
        for units, extra in zip(work_lists, uncut):
            for l_part, t_part in units:
                plan = plan_spill(
                    l_part.num_rows + extra, t_part.num_rows,
                    memory_budget_rows
                )
                stats.spilled_tuples += plan.spilled_tuples()
                stats.max_fragments = max(stats.max_fragments,
                                          plan.num_fragments)
                join_units.extend(
                    (probe_frag, build_frag)
                    for build_frag, probe_frag in fragment_tables(
                        l_part, t_part, query.hdfs_join_key,
                        query.db_join_key, plan.num_fragments, observers,
                    ))
        # Every unit joins in one slot-keyed build, probe and group-by.
        result, stats.join_output_tuples = join_aggregate(
            join_units, query, index_for)
        stats.result_rows = result.num_rows
        return result, stats

    @staticmethod
    def _steal_stragglers(
        work_lists: List[List[Tuple[Table, Table]]],
        query: HybridQuery,
        stats: LocalJoinStats,
        threshold: Optional[float],
        observers: Tuple = (),
    ) -> None:
        """Re-deal straggler join partitions across workers (in place)
        once the largest load passes ``threshold`` times the mean.

        Partial aggregation is commutative and the fragmenting is
        key-aligned (the same machinery spill uses), so the final
        aggregate is bit-identical no matter which worker executes a
        fragment — only the load distribution changes.
        """
        if threshold is None or len(work_lists) <= 1:
            return
        from repro.jen.scheduler import plan_work_stealing
        from repro.jen.spill import fragment_tables

        originals = [units[0] for units in work_lists]
        plan = plan_work_stealing(
            [l_part.num_rows + t_part.num_rows
             for l_part, t_part in originals],
            threshold=threshold,
        )
        stats.post_steal_balance = plan.pre_balance
        if not plan.has_moves():
            return
        for units in work_lists:
            units.clear()
        stolen = 0
        for slot, (l_part, t_part) in enumerate(originals):
            pieces = fragment_tables(
                l_part, t_part, query.hdfs_join_key, query.db_join_key,
                plan.fragments[slot], observers,
            )
            for index, piece in enumerate(pieces):
                destination = plan.assignments[(slot, index)]
                work_lists[destination].append(piece)
                if destination != slot:
                    stolen += piece[0].num_rows + piece[1].num_rows
        for slot, units in enumerate(work_lists):
            if not units:
                # Everything this slot owned was dealt away; keep a
                # degenerate empty unit so the per-worker aggregation
                # shape is unchanged.
                units.append((originals[slot][0].slice(0, 0),
                              originals[slot][1].slice(0, 0)))
        stats.stolen_tuples = stolen
        loads = [
            sum(l_unit.num_rows + t_unit.num_rows
                for l_unit, t_unit in units)
            for units in work_lists
        ]
        mean = sum(loads) / len(loads)
        stats.post_steal_balance = (
            max(loads) / mean if mean > 0 else 1.0
        )
