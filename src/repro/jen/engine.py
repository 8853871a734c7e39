"""The Jen facade: the whole HDFS-side engine behind one object.

Join algorithms talk to this class: it wires the coordinator and the
workers, runs distributed scans (optionally with a pushed-down database
Bloom filter and/or a local Bloom-filter build), executes the agreed-hash
shuffle, and finishes local joins with partial plus final aggregation.

Fault tolerance: arming a :class:`~repro.faults.FaultPlan` (via
:meth:`Jen.arm_faults`) turns on mid-query failure handling.  Scans run
as a work queue — when an injected crash kills a worker, its partial
output is discarded and the coordinator deals its blocks to the
survivors; shuffle-time crashes re-produce the victim's filtered rows on
a survivor; message drops retry with backoff and re-delivered partitions
are suppressed by the receivers.  Results stay bit-identical to the
fault-free run while every recovery is charged on the trace.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.adaptive import hooks as adaptive_hooks
from repro.config import HybridConfig
from repro.core.bloom import BloomFilter
from repro.errors import CatalogError, FaultError, JoinError, WorkerCrashError
from repro.faults import CrashSignal, FaultInjector, FaultPlan, ScanFaultHook
from repro.hdfs.filesystem import HdfsFileSystem, HdfsTableMeta
from repro.jen.coordinator import JenCoordinator
from repro.jen.exchange import ShuffleResult, combine_blooms, final_aggregate, shuffle
from repro.jen.worker import JenWorker, ScanRequest, ScanStats
from repro.latemat import LateMatPlan, StitchStats
from repro.net.transfer import RetryPolicy
from repro.relational.table import Table
from repro.query.plan import join_build_columns, join_partial_aggregate
from repro.query.query import HybridQuery


@dataclass
class DistributedScanResult:
    """Per-worker wire tables plus merged statistics."""

    wire_tables: List[Table]
    stats: ScanStats
    local_blooms: Optional[List[BloomFilter]] = None
    #: Heavy-hitter join keys detected during the scan (sorted int64
    #: array, possibly empty); ``None`` when skew handling is off.
    hot_keys: Optional[object] = None

    def global_bloom(self) -> BloomFilter:
        """Merge the per-worker Bloom filters (zigzag step 3b/4)."""
        if not self.local_blooms:
            raise JoinError("scan was not run with a local Bloom build")
        return combine_blooms(self.local_blooms)


@dataclass
class LocalJoinStats:
    """Volume accounting of the distributed local-join stage."""

    build_tuples: int = 0
    probe_tuples: int = 0
    join_output_tuples: int = 0
    result_rows: int = 0
    #: Tuples written to and re-read from disk by spilling workers
    #: (Grace-hash fragmenting; 0 when everything fits in memory).
    spilled_tuples: int = 0
    #: Largest fragment count any worker needed.
    max_fragments: int = 1
    #: Build + probe rows re-dealt to other workers by work stealing.
    stolen_tuples: int = 0
    #: max/mean per-worker join load before and after stealing
    #: (1.0 both when stealing never armed or never triggered).
    pre_steal_balance: float = 1.0
    post_steal_balance: float = 1.0
    #: Per-worker build + probe rows after any stealing (the bench
    #: derives worker-finish spread from it).
    per_slot_loads: Optional[List[int]] = None
    #: Late-materialization stitch accounting
    #: (:class:`repro.latemat.StitchStats`); ``None`` when the join ran
    #: on full-width parts.
    stitch: Optional[StitchStats] = None


class Jen:
    """Coordinator + workers of the HDFS-side execution engine."""

    def __init__(self, filesystem: HdfsFileSystem, config: HybridConfig,
                 locality: bool = True):
        self.filesystem = filesystem
        self.config = config
        num_workers = config.cluster.jen_workers()
        self.coordinator = JenCoordinator(
            filesystem, num_workers, locality=locality
        )
        self.workers = [
            JenWorker(worker_id, filesystem)
            for worker_id in range(num_workers)
        ]
        self._scan_depth = 0
        self._injector: Optional[FaultInjector] = None
        #: Optional hook ``(worker_slot, build_keys, band_values) ->
        #: JoinBuildIndex`` (the columns of
        #: :func:`~repro.query.plan.join_build_columns`), consulted by
        #: :meth:`join_and_aggregate` for each worker's build side.  The
        #: service plane installs a caching provider here so repeated
        #: queries over an unchanged build reuse the sorted index;
        #: ``None`` means build a fresh index per worker.
        self.build_index_provider = None

    @property
    def num_workers(self) -> int:
        """Number of live JEN workers."""
        return len(self.workers)

    # ------------------------------------------------------------------
    # Worker membership + fault plans
    # ------------------------------------------------------------------
    def fail_worker(self, worker_id: int) -> None:
        """Take one worker out of service (paper Section 4.1: the
        coordinator manages worker state "so that workers know which
        other workers are up and running").

        Subsequent scans re-plan over the survivors; blocks whose only
        local replica sat on the dead node are read remotely.

        Mid-scan failures must be driven by an armed
        :class:`~repro.faults.FaultPlan` (``crash:w<id>@scan``) so the
        engine can recover deterministically; calling this while a scan
        is in flight without one raises :class:`~repro.errors.FaultError`.
        """
        if not any(w.worker_id == worker_id for w in self.workers):
            raise JoinError(f"no live JEN worker {worker_id}")
        if len(self.workers) == 1:
            raise JoinError("cannot fail the last JEN worker")
        if self._scan_depth > 0 and self._active_injector() is None:
            raise FaultError(
                f"a scan is in flight: failing worker {worker_id} now has "
                "no defined semantics — inject the crash through an armed "
                "FaultPlan (Jen.arm_faults('crash:w"
                f"{worker_id}@scan')) so the engine can recover, or fail "
                "the worker between queries"
            )
        self._remove_worker(worker_id)

    def restore_workers(self) -> None:
        """Bring the cluster back to full strength (chaos-run helper).

        Re-creates the configured worker set and marks everyone up, so
        one warehouse can host many fault scenarios back to back.
        """
        if self._scan_depth > 0:
            raise JoinError("cannot restore workers mid-scan")
        num_workers = self.config.cluster.jen_workers()
        self.workers = [
            JenWorker(worker_id, self.filesystem)
            for worker_id in range(num_workers)
        ]
        for worker_id in range(num_workers):
            self.coordinator.mark_worker(worker_id, up=True)

    def arm_faults(self, plan: Union[FaultPlan, str], seed: int = 11,
                   retry_policy: Optional[RetryPolicy] = None,
                   detect_fraction: float = 0.25) -> FaultInjector:
        """Arm a fault plan (object or spec string) for subsequent runs.

        Returns the :class:`~repro.faults.FaultInjector`, whose fired
        log, counters and :meth:`~repro.faults.FaultInjector.report`
        describe everything that happened.
        """
        if isinstance(plan, str):
            plan = FaultPlan.from_spec(plan, seed=seed)
        self._injector = FaultInjector(
            plan, retry_policy=retry_policy,
            detect_fraction=detect_fraction,
        )
        return self._injector

    def disarm_faults(self) -> None:
        """Drop the armed fault plan (fault-free runs again)."""
        self._injector = None

    @property
    def injector(self) -> Optional[FaultInjector]:
        """The armed fault injector, if any."""
        return self._injector

    def _active_injector(self) -> Optional[FaultInjector]:
        if self._injector is not None and self._injector.armed:
            return self._injector
        return None

    def _remove_worker(self, worker_id: int) -> None:
        self.workers = [
            worker for worker in self.workers
            if worker.worker_id != worker_id
        ]
        self.coordinator.mark_worker(worker_id, up=False)

    # ------------------------------------------------------------------
    def distributed_scan(
        self,
        query: HybridQuery,
        db_bloom: Optional[BloomFilter] = None,
        build_local_blooms: bool = False,
        bloom_seed: int = 11,
    ) -> DistributedScanResult:
        """Scan the query's HDFS table on every worker.

        ``db_bloom`` is the pushed-down database Bloom filter;
        ``build_local_blooms`` additionally populates one local filter
        per worker during the scan (the zigzag join's BF_H build).
        """
        return self.scan_with_request(
            query.hdfs_table,
            ScanRequest.from_query(query),
            db_bloom=db_bloom,
            build_local_blooms=build_local_blooms,
            bloom_seed=bloom_seed,
        )

    def scan_with_request(
        self,
        table_name: str,
        request: ScanRequest,
        db_bloom: Optional[BloomFilter] = None,
        build_local_blooms: bool = False,
        bloom_seed: int = 11,
    ) -> DistributedScanResult:
        """Query-independent distributed scan (the read_hdfs path)."""
        injector = self._active_injector()
        if injector is not None:
            injector.check_abort("scan")
        meta = self.coordinator.table_meta(table_name)
        self._scan_depth += 1
        try:
            detector = self._skew_detector(request)
            with adaptive_hooks.detecting_skew(detector):
                result = self._run_scan_queue(
                    meta, request, db_bloom, build_local_blooms,
                    bloom_seed, injector,
                )
            if detector is not None:
                result.hot_keys = detector.hot_key_set()
            return result
        finally:
            self._scan_depth -= 1

    def scan_sampled_blocks(
        self,
        table_name: str,
        request: ScanRequest,
        blocks,
        db_bloom: Optional[BloomFilter] = None,
    ):
        """Scan individual blocks one at a time, yielding per-block wire
        tables (the approximate tier's morsel stream).

        Each block runs on the worker owning its primary replica (local
        read when the sampled node is a live worker, remote otherwise) —
        the same locality rule the full scan's scheduler applies, so a
        sampled scan's per-block cost profile matches a full scan's.
        Yields ``(wire_table, ScanStats)`` per block; the consumer
        decides when to stop drawing, which is what makes progressive
        refinement possible.

        Fault plans are deliberately unsupported: the block-at-a-time
        stream has no work-queue recovery semantics, and a degraded
        (approximate) run under injected faults would conflate two
        failure domains.  Callers fall back to the exact tier instead.
        """
        if self._active_injector() is not None:
            raise JoinError(
                "sampled scans do not support armed fault plans; run the "
                "exact tier under fault injection instead"
            )
        meta = self.coordinator.table_meta(table_name)
        by_id = {worker.worker_id: worker for worker in self.workers}

        def owner(block):
            for node_id in block.replicas:
                if node_id in by_id:
                    return by_id[node_id]
            return self.workers[block.block_id % len(self.workers)]

        self._scan_depth += 1
        try:
            for block in blocks:
                wire, stats = owner(block).scan_filter_project(
                    meta, [block], request, db_bloom=db_bloom
                )
                yield wire, stats
        finally:
            self._scan_depth -= 1

    def _skew_detector(self, request: ScanRequest):
        """A fresh heavy-hitter detector, or ``None`` when not needed.

        Detection is pointless without a join key to observe or with a
        single worker (nothing to balance).
        """
        from repro import skew as skew_plane

        if not skew_plane.skew_handling_enabled():
            return None
        if request.join_key is None or self.num_workers <= 1:
            return None
        return skew_plane.HeavyHitterDetector(self.num_workers)

    def _run_scan_queue(
        self,
        meta: HdfsTableMeta,
        request: ScanRequest,
        db_bloom: Optional[BloomFilter],
        build_local_blooms: bool,
        bloom_seed: int,
        injector: Optional[FaultInjector],
    ) -> DistributedScanResult:
        """The scan as a work queue of (worker, blocks) tasks.

        Fault-free this degenerates to one task per worker, exactly the
        original single-pass scan.  With an armed injector, a crashing
        worker's task raises mid-loop: its partial output is discarded
        and its blocks come back as recovery tasks on the survivors, so
        every block is scanned into the result exactly once.
        """
        assignment = self.coordinator.plan_scan(meta.name)
        blooms: Dict[int, BloomFilter] = {}
        if build_local_blooms:
            blooms = {
                worker.worker_id: BloomFilter(
                    self.config.bloom_bits(),
                    self.config.bloom.num_hashes,
                    seed=bloom_seed,
                )
                for worker in self.workers
            }
        tasks = deque(
            (worker, list(assignment.blocks_for(worker.worker_id)))
            for worker in self.workers
        )
        adaptive_hooks.scan_begin(
            sum(len(blocks) for _worker, blocks in tasks)
        )
        pieces: Dict[int, List[Table]] = {
            worker.worker_id: [] for worker in self.workers
        }
        merged = ScanStats()
        while tasks:
            worker, blocks = tasks.popleft()
            if worker not in self.workers:
                # The owner of this recovery task died after it was
                # queued (a second crash event); deal its blocks out
                # again.
                self._requeue(worker.worker_id, blocks, tasks)
                continue
            hook = None
            if injector is not None:
                crash_at = injector.scan_crash_block(
                    worker.worker_id, len(blocks)
                )
                if crash_at is not None:
                    if not blocks:
                        self._scan_crash(worker, blocks, ScanStats(),
                                         injector, tasks, pieces, blooms,
                                         merged)
                        continue
                    hook = ScanFaultHook(crash_at)
            try:
                wire, stats = worker.scan_filter_project(
                    meta, blocks, request,
                    db_bloom=db_bloom,
                    local_bloom=blooms.get(worker.worker_id),
                    faults=hook,
                )
            except CrashSignal as signal:
                self._scan_crash(worker, blocks, signal.stats, injector,
                                 tasks, pieces, blooms, merged)
                continue
            pieces[worker.worker_id].append(wire)
            merged = merged.merge(stats)

        if injector is not None:
            self._record_stragglers(injector)
        wire_tables = [
            Table.concat(pieces[worker.worker_id])
            for worker in self.workers
        ]
        local_blooms = (
            [blooms[worker.worker_id] for worker in self.workers]
            if build_local_blooms else None
        )
        return DistributedScanResult(
            wire_tables=wire_tables,
            stats=merged,
            local_blooms=local_blooms,
        )

    def _scan_crash(self, worker: JenWorker, blocks, partial: ScanStats,
                    injector: FaultInjector, tasks, pieces, blooms,
                    merged: ScanStats) -> None:
        """Recover from a mid-scan crash (or raise if unrecoverable)."""
        survivors = len(self.workers) - 1
        if survivors == 0:
            # The crash event has fired, so a service-plane retry of the
            # whole query runs fault-free.
            raise WorkerCrashError(
                f"worker {worker.worker_id} crashed during scan and no "
                "survivors remain",
                worker_id=worker.worker_id, phase="scan",
                rows_lost=partial.rows_scanned,
            )
        self._remove_worker(worker.worker_id)
        # Partial output (wire rows and Bloom inserts) dies with the
        # worker; the rescanned blocks rebuild it on the survivors.
        pieces.pop(worker.worker_id, None)
        blooms.pop(worker.worker_id, None)
        merged.rows_discarded += partial.rows_scanned
        merged.blocks_reassigned += len(blocks)
        injector.record_scan_crash(
            worker.worker_id, partial.rows_scanned, len(blocks), survivors
        )
        self._requeue(worker.worker_id, blocks, tasks)

    def _requeue(self, dead_worker: int, blocks, tasks) -> None:
        """Deal a dead worker's blocks to the survivors as new tasks."""
        if not blocks:
            return
        by_id = {worker.worker_id: worker for worker in self.workers}
        for survivor_id, chunk in self.coordinator.reassign_blocks(
            dead_worker, blocks
        ):
            tasks.append((by_id[survivor_id], chunk))

    def _record_stragglers(self, injector: FaultInjector) -> None:
        """Account straggler slowdowns + speculative backups post-scan."""
        for worker in self.workers:
            factor = injector.slow_factor(worker.worker_id)
            if factor <= 1.0:
                continue
            try:
                backup = self.coordinator.speculative_worker(
                    worker.worker_id
                )
            except CatalogError:
                backup = None
            injector.record_straggler(worker.worker_id, factor, backup)

    # ------------------------------------------------------------------
    def shuffle_by_key(self, wire_tables: List[Table], key: str,
                       hot_keys=None) -> ShuffleResult:
        """All-to-all shuffle of the wire tables on the agreed hash.

        With an armed fault plan: workers crashing at shuffle time lose
        their filtered rows, which a survivor re-produces (charged as a
        recovery re-scan) before the exchange runs over the remaining
        workers; individual messages go through retry/dedup delivery.

        A non-empty ``hot_keys`` array switches to the hybrid split:
        rows of detected heavy-hitter keys are dealt round-robin across
        all (surviving) workers instead of hashing onto one receiver,
        while the cold tail keeps the agreed hash.  Delivery — retries,
        dedup, exactly-once accounting — is identical either way; only
        the senders' destination assignments change.
        """
        injector = self._active_injector()
        wire_tables = list(wire_tables)
        if injector is not None:
            injector.check_abort("shuffle")
            if len(wire_tables) == len(self.workers):
                wire_tables = self._shuffle_crashes(wire_tables, injector)
        per_destination, routed, hot_tuples = \
            JenWorker.partition_for_exchange(
                wire_tables, key, self.num_workers, hot_keys
            )
        result = shuffle(per_destination, routed, faults=injector)
        result.hot_tuples = hot_tuples
        return result

    def _shuffle_crashes(self, wire_tables: List[Table],
                         injector: FaultInjector) -> List[Table]:
        """Kill shuffle-time crash victims and salvage their rows."""
        for victim_id in injector.shuffle_crashes(
            [worker.worker_id for worker in self.workers]
        ):
            if len(self.workers) == 1:
                raise WorkerCrashError(
                    f"worker {victim_id} crashed during shuffle and no "
                    "survivors remain",
                    worker_id=victim_id, phase="shuffle",
                    rows_lost=wire_tables[0].num_rows,
                )
            position = next(
                index for index, worker in enumerate(self.workers)
                if worker.worker_id == victim_id
            )
            victim_wire = wire_tables.pop(position)
            self._remove_worker(victim_id)
            # The survivor re-runs the victim's scan share; in the
            # deterministic data plane that re-produces exactly the
            # victim's filtered rows, so attach them to the survivor.
            survivor_id = self.workers[0].worker_id
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
        memory_budget_rows: float = 0.0,
        latemat_plan: Optional[LateMatPlan] = None,
    ) -> Tuple[Table, LocalJoinStats]:
        """Local hash joins on every worker, then the final aggregate.

        ``l_parts[i]`` is worker *i*'s build side (filtered HDFS rows it
        received), ``t_parts[i]`` its probe side (database rows that
        arrived addressed by the agreed hash).

        ``memory_budget_rows`` is the per-worker in-memory build limit at
        the data-plane scale; workers whose build side exceeds it spill
        via Grace-hash fragmenting (:mod:`repro.jen.spill`).  Zero means
        unlimited — the paper's current JEN, which "requires that all
        data fit in memory".  An armed ``spill:x<f>`` fault event
        squeezes the budget to ``f`` times the largest build side.

        ``latemat_plan`` says which sides arrived as thin
        ``(key, rowid)`` tables; the stitch (prune + payload fetch) runs
        first, so every downstream path — spilling, stealing, fault
        recovery — operates on full rows exactly as the classic
        mode and the results are row-identical by construction.
        """
        injector = self._active_injector()
        if injector is not None:
            injector.check_abort("join")
        if len(l_parts) != self.num_workers or len(t_parts) != self.num_workers:
            raise JoinError(
                "join_and_aggregate needs one part per worker on both sides"
            )
        if injector is not None:
            # The probe-side partitions arrive over the DB->JEN transfer
            # channel; lost ones retry, duplicated ones are suppressed.
            for worker in self.workers:
                injector.deliver("transfer", -1, worker.worker_id)
            pressure = injector.spill_budget_rows(
                max((part.num_rows for part in l_parts), default=0)
            )
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
        from repro.jen.spill import fragment_tables, plan_spill
        from repro.kernels.joinindex import JoinBuildIndex

        stats = LocalJoinStats(stitch=stitch_stats)
        # One work unit per worker to start with; the skew plane may
        # fragment straggler units and re-deal the pieces.
        work_lists: List[List[Tuple[Table, Table]]] = [
            [(l_part, t_part)]
            for l_part, t_part in zip(l_parts, t_parts)
        ]
        self._steal_stragglers(work_lists, query, stats)
        stats.per_slot_loads = [
            sum(l_unit.num_rows + t_unit.num_rows
                for l_unit, t_unit in units)
            for units in work_lists
        ]
        partials: List[Table] = []
        for slot, units in enumerate(work_lists):
            worker_partials: List[Table] = []
            for l_part, t_part in units:
                plan = plan_spill(
                    l_part.num_rows, t_part.num_rows, memory_budget_rows
                )
                stats.spilled_tuples += plan.spilled_tuples()
                stats.max_fragments = max(stats.max_fragments,
                                          plan.num_fragments)
                build_index = None
                if not plan.spilled:
                    # Sort the worker's build side once and reuse the
                    # index for the probe (and, via an installed
                    # provider, across queries whose build side is
                    # unchanged).  Spilling workers fragment the build,
                    # so whole-side indexes do not apply there; a
                    # stolen fragment is not the slot's canonical build
                    # side, so it never enters the cross-query cache.
                    build_columns = join_build_columns(
                        t_part, l_part, query)
                    if self.build_index_provider is not None \
                            and len(units) == 1:
                        build_index = self.build_index_provider(
                            slot, *build_columns
                        )
                    else:
                        build_index = JoinBuildIndex(*build_columns)
                fragments = fragment_tables(
                    l_part, t_part, query.hdfs_join_key,
                    query.db_join_key, plan.num_fragments,
                )
                for build_frag, probe_frag in fragments:
                    partial, pairs = join_partial_aggregate(
                        probe_frag, build_frag, query,
                        build_index=build_index,
                    )
                    stats.join_output_tuples += pairs
                    worker_partials.append(partial)
                stats.build_tuples += l_part.num_rows
                stats.probe_tuples += t_part.num_rows
            partials.append(final_aggregate(worker_partials, query))
        result = final_aggregate(partials, query)
        stats.result_rows = result.num_rows
        return result, stats

    def _steal_stragglers(
        self,
        work_lists: List[List[Tuple[Table, Table]]],
        query: HybridQuery,
        stats: LocalJoinStats,
    ) -> None:
        """Re-deal straggler join partitions across workers (in place).

        Partial aggregation is commutative and the fragmenting is
        key-aligned (the same machinery spill uses), so the final
        aggregate is bit-identical no matter which worker executes a
        fragment — only the load distribution changes.
        """
        from repro import skew as skew_plane

        if not skew_plane.skew_handling_enabled() or self.num_workers <= 1:
            return
        from repro.jen.scheduler import plan_work_stealing
        from repro.jen.spill import fragment_tables

        originals = [units[0] for units in work_lists]
        plan = plan_work_stealing(
            [l_part.num_rows + t_part.num_rows
             for l_part, t_part in originals],
            threshold=skew_plane.SkewPolicy().steal_threshold,
        )
        stats.pre_steal_balance = plan.pre_balance
        stats.post_steal_balance = plan.pre_balance
        if not plan.has_moves():
            return
        for units in work_lists:
            units.clear()
        stolen = 0
        for slot, (l_part, t_part) in enumerate(originals):
            pieces = fragment_tables(
                l_part, t_part, query.hdfs_join_key, query.db_join_key,
                plan.fragments[slot],
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
