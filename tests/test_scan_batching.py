"""The file-level JEN scan against per-block and per-worker references.

The pushed-down predicate runs once over the whole file; a worker then
reads its blocks one by one (locality, rerouting, fault hook and counts
stay per block), and gather, Bloom step, derive and projection run once
over every block's survivors.  ``reference_scan`` below is the same
pipeline written the obvious way — predicate and all, one block at a
time, one concat at the end — and every observable of
``JenWorker.scan_filter_project`` must equal it: wire rows and their
order, ``ScanStats``, the BF_H words, and the sequence of per-block
observer calls.

``Jen.scan_with_request`` goes one step further: one Bloom step per
query over every worker's batch, into one BF_H.  ``reference_queue_scan``
is the work queue with a Bloom step per task into per-worker filters,
OR-merged at the end; the query-wide scan must equal it too.
"""

from __future__ import annotations

import dataclasses
import math
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest

from repro.adaptive import AdaptiveJoin, SwitchSignal
from repro.adaptive.collector import CHECKPOINTS
from repro.core.bloom import BloomFilter
from repro.core.joins import algorithm_by_name
from repro.faults import CrashSignal, FaultPlan, ScanFaultHook
from repro.jen.worker import ScanRequest, ScanStats
from repro.query.query import DerivedColumn
from repro.relational.expressions import UdfPredicate
from repro.relational.table import Table
from repro.skew import HeavyHitterDetector
from repro.testkit import generator, oracle

BLOOM_BITS = 1 << 14
WORKER = 3


def reference_scan(worker, meta, blocks, request, db_bloom=None,
                   local_bloom=None):
    """filter -> project -> derive -> Bloom -> wire, block by block.

    Returns ``(wire, stats, feed)``; ``feed`` is what the per-block
    observers are owed, in order: ``("keys", [...])`` to a heavy-hitter
    detector, then ``("block", rows, bytes, after_predicates,
    after_bloom, applied)`` to a :class:`BlockLog` behind it.
    """
    row_bytes = meta.storage_format().scan_bytes_per_row(
        meta.schema, list(request.projection))
    datanode = worker.filesystem.datanodes[worker.worker_id]
    probing = db_bloom is not None and request.join_key is not None
    stats = ScanStats()
    pieces, feed = [], []
    for block in blocks:
        local = datanode.has_replica(block.block_id)
        rows = worker.filesystem.read_block(
            block, preferred_node=worker.worker_id if local else None)
        stats.local_blocks += local
        stats.remote_blocks += not local
        stats.rows_scanned += rows.num_rows
        stats.stored_bytes_scanned += rows.num_rows * row_bytes
        filtered = rows.filter(request.predicate.evaluate(rows))
        filtered = filtered.project(list(request.projection))
        after_predicates = filtered.num_rows
        filtered = request.apply_derivations(filtered)
        if probing:
            keys = filtered.column(request.join_key)
            keep = db_bloom.contains(keys)
            if local_bloom is not None:
                local_bloom.add(keys[keep])
            filtered = filtered.filter(keep)
        elif local_bloom is not None and request.join_key is not None:
            local_bloom.add(filtered.column(request.join_key))
        wire = filtered.project(list(request.wire_columns))
        stats.rows_after_predicates += after_predicates
        stats.rows_after_bloom += wire.num_rows
        pieces.append(wire)
        if request.join_key in wire.schema.names:
            feed.append(("keys", wire.column(request.join_key).tolist()))
        feed.append(("block", rows.num_rows, rows.num_rows * row_bytes,
                     after_predicates, wire.num_rows, probing))
    return Table.concat(pieces), stats, feed


def assert_same_table(actual: Table, expected: Table) -> None:
    assert actual.schema.names == expected.schema.names
    for name in expected.schema.names:
        assert actual.column(name).dtype == expected.column(name).dtype
        assert np.array_equal(actual.column(name), expected.column(name))
    assert actual.to_rows() == expected.to_rows()


def assert_same_bloom(actual: BloomFilter, expected: BloomFilter) -> None:
    assert np.array_equal(actual._words, expected._words)
    assert actual.num_added == expected.num_added


@pytest.fixture(scope="module")
def scan_setup(loaded_warehouse, paper_query, paper_workload):
    """Worker, table metadata, its block list, the query's request and
    a BF_DB (seed 7, as the EDW builds it) over a fifth of the keys."""
    jen = loaded_warehouse.jen
    worker = jen.workers[WORKER]
    meta = jen.coordinator.table_meta("L")
    blocks = list(jen.coordinator.plan_scan("L").blocks_for(WORKER))
    assert len(blocks) >= 3
    keys = np.unique(paper_workload.l_table.column("joinKey"))
    db_bloom = BloomFilter(BLOOM_BITS, 2, seed=7)
    db_bloom.add(keys[::5])
    request = ScanRequest.from_query(paper_query)
    return worker, meta, blocks, request, db_bloom


def new_local_bloom() -> BloomFilter:
    return BloomFilter(BLOOM_BITS, 2, seed=11)


class BlockLog:
    """A scan observer logging each block's counts as a ``"block"``
    event (the adaptive context's ``on_scan_*`` methods); a detector
    ahead of it logs the block's keys."""

    def __init__(self, events):
        self.events = events
        self.total = None

    def on_scan_begin(self, total_blocks):
        self.total = total_blocks

    def on_scan_block(self, *counts_and_keys):
        self.events.append(("block",) + counts_and_keys[:-1])


# ----------------------------------------------------------------------
# Rows, order, stats and BF_H against the per-block loop
# ----------------------------------------------------------------------
class TestBatchEqualsPerBlock:
    @pytest.mark.parametrize("probe,insert", [
        (True, True),     # zigzag: probe BF_DB, insert into BF_H
        (True, False),    # db(BF): probe only
        (False, True),    # repartition(BF)-style: insert only
        (False, False),   # no Bloom filter at all
    ])
    def test_bloom_modes(self, scan_setup, probe, insert):
        worker, meta, blocks, request, db_bloom = scan_setup
        db_bloom = db_bloom if probe else None
        expected_bloom = new_local_bloom() if insert else None
        actual_bloom = new_local_bloom() if insert else None
        expected, expected_stats, _feed = reference_scan(
            worker, meta, blocks, request, db_bloom, expected_bloom)
        actual, stats = worker.scan_filter_project(
            meta, blocks, request, db_bloom=db_bloom,
            local_bloom=actual_bloom)
        assert_same_table(actual, expected)
        assert stats == expected_stats
        assert 0 < stats.rows_after_predicates < stats.rows_scanned
        if probe:
            assert 0 < stats.rows_after_bloom < stats.rows_after_predicates
        if insert:
            assert_same_bloom(actual_bloom, expected_bloom)
            assert actual_bloom.num_added == stats.rows_after_bloom

    def test_block_with_no_survivors(self, scan_setup):
        """An empty selection vector in the middle of the batch keeps
        the per-block survivor counts aligned."""
        worker, meta, blocks, request, db_bloom = scan_setup
        file_keys = worker.filesystem.file_table("L").column("joinKey")

        def not_block_1(keys):
            # ``keys`` is a view of the file's column (a block's rows or
            # the whole file): its address says which rows it holds.
            first = (keys.ctypes.data - file_keys.ctypes.data) \
                // keys.itemsize
            rows = np.arange(first, first + len(keys))
            return (rows < blocks[1].start_row) | (rows >= blocks[1].end_row)

        narrow = dataclasses.replace(
            request,
            predicate=request.predicate & UdfPredicate(
                "not_block_1", "joinKey", not_block_1),
        )
        _wire, _stats, feed = reference_scan(
            worker, meta, blocks, narrow, db_bloom)
        blocks_fed = [entry for entry in feed if entry[0] == "block"]
        assert blocks_fed[1][3] == 0          # nothing survives block 1
        assert any(entry[4] for entry in blocks_fed)
        seen = []
        worker.scan_filter_project(meta, blocks, narrow, db_bloom=db_bloom,
                                   observers=(BlockLog(seen),))
        assert seen == blocks_fed

    def test_worker_with_zero_blocks(self, scan_setup):
        worker, meta, blocks, request, db_bloom = scan_setup
        local_bloom = new_local_bloom()
        wire, stats = worker.scan_filter_project(
            meta, [], request, db_bloom=db_bloom, local_bloom=local_bloom)
        assert wire.num_rows == 0
        assert wire.schema.names == request.wire_columns
        assert stats == ScanStats()
        assert local_bloom.is_empty() and local_bloom.num_added == 0
        # ... and it concatenates with a non-empty worker's wire table.
        full, _stats = worker.scan_filter_project(
            meta, blocks, request, db_bloom=db_bloom)
        assert_same_table(Table.concat([wire, full]), full)

    def test_join_key_is_a_derived_column(self, scan_setup):
        """The filter is keyed on a scan-time derived column, so the
        derive has to run before the Bloom step."""
        worker, meta, blocks, request, _db_bloom = scan_setup
        derived = DerivedColumn(
            "urlClass", "groupByExtractCol", "url_class",
            lambda url: url[-1])
        keyed = ScanRequest(
            predicate=request.predicate,
            projection=request.projection,
            derived=(derived,),
            wire_columns=("joinKey", "urlClass"),
            join_key="urlClass",
        )
        codes = np.unique(
            reference_scan(worker, meta, blocks, keyed)[0]
            .column("urlClass"))
        assert codes.size >= 2
        db_bloom = BloomFilter(BLOOM_BITS, 2, seed=7)
        db_bloom.add(codes[::2])
        expected_bloom, actual_bloom = new_local_bloom(), new_local_bloom()
        expected, expected_stats, _feed = reference_scan(
            worker, meta, blocks, keyed, db_bloom, expected_bloom)
        actual, stats = worker.scan_filter_project(
            meta, blocks, keyed, db_bloom=db_bloom,
            local_bloom=actual_bloom)
        assert_same_table(actual, expected)
        assert stats == expected_stats
        assert 0 < stats.rows_after_bloom < stats.rows_after_predicates
        assert_same_bloom(actual_bloom, expected_bloom)

    def test_evicted_primary_replica_is_read_remotely(self, scan_setup):
        """The worker's own primary replica of a block is gone: the
        read reroutes to another node's replica and counts as remote,
        and the rows are the same."""
        worker, meta, blocks, request, db_bloom = scan_setup
        block = next(block for block in blocks
                     if block.replicas[0] == worker.worker_id)
        datanode = worker.filesystem.datanodes[worker.worker_id]
        replica = datanode.read_block(block)
        before, before_stats = worker.scan_filter_project(
            meta, blocks, request, db_bloom=db_bloom)
        datanode.evict(block.block_id)
        try:
            expected, expected_stats, _feed = reference_scan(
                worker, meta, blocks, request, db_bloom)
            actual, stats = worker.scan_filter_project(
                meta, blocks, request, db_bloom=db_bloom)
        finally:
            datanode.store_replica(block, replica)
        assert_same_table(actual, expected)
        assert_same_table(actual, before)
        assert stats == expected_stats
        assert stats.remote_blocks == before_stats.remote_blocks + 1
        assert stats.local_blocks == before_stats.local_blocks - 1


def test_sampled_scan_evaluates_only_the_blocks_it_reads(loaded_warehouse,
                                                         scan_setup):
    """The approximate tier's block stream runs the predicate over each
    drawn block's rows alone, so a stream stopped early evaluates no
    more rows than it read — and each block's wire rows are the
    per-block pipeline's."""
    _worker, meta, blocks, request, db_bloom = scan_setup
    jen = loaded_warehouse.jen
    calls = []

    def counted(keys):
        calls.append(len(keys))
        return np.ones(len(keys), dtype=bool)

    counting = dataclasses.replace(
        request, predicate=request.predicate & UdfPredicate(
            "count_calls", "joinKey", counted))
    drawn = blocks[:-1]
    stream = jen.scan_sampled_blocks("L", counting, blocks,
                                     db_bloom=db_bloom)
    sampled = [next(stream) for _block in drawn]
    stream.close()
    assert calls == [block.num_rows for block in drawn]
    for block, (wire, stats) in zip(drawn, sampled):
        expected, expected_stats, _feed = reference_scan(
            jen.workers[block.replicas[0]], meta, [block], request,
            db_bloom)
        assert_same_table(wire, expected)
        assert stats == expected_stats


# ----------------------------------------------------------------------
# Per-block observers are fed off the batch
# ----------------------------------------------------------------------
class _RecordingDetector(HeavyHitterDetector):
    """A real detector logging each observation."""

    def __init__(self, events, num_workers):
        super().__init__(num_workers)
        self.events = events

    def observe(self, keys):
        self.events.append(("keys", np.asarray(keys).tolist()))
        super().observe(keys)


def _assert_feed_equals_the_per_block_feed(scan_setup, db_bloom):
    worker, meta, blocks, request, _db_bloom = scan_setup
    _wire, _stats, feed = reference_scan(
        worker, meta, blocks, request, db_bloom)
    events = []
    recorder = _RecordingDetector(events, num_workers=4)
    worker.scan_filter_project(meta, blocks, request, db_bloom=db_bloom,
                               observers=(recorder, BlockLog(events)))
    assert events == feed
    assert len([e for e in events if e[0] == "block"]) == len(blocks)


class TestObserverReplay:
    def test_hook_sequence_equals_the_per_block_feed(self, scan_setup):
        _assert_feed_equals_the_per_block_feed(scan_setup, scan_setup[4])

    def test_hook_sequence_without_a_bloom_filter(self, scan_setup):
        """No filter probed: every block reports ``bloom_applied``
        false and its after-Bloom count equal to its survivors."""
        _assert_feed_equals_the_per_block_feed(scan_setup, None)

    def test_hot_key_set_matches_the_per_block_feed(self):
        """The detector prunes per observation, so its answer depends
        on the feed's grain; the sequence test above pins the grain,
        this one the resulting hot-key set on a Zipf-skewed case."""
        case = generator.skewed_case(seed=3, key_skew=1.8)
        warehouse = generator.build_cell_warehouse(case, 4, "parquet")
        jen = warehouse.jen
        meta = jen.coordinator.table_meta("L")
        request = ScanRequest.from_query(case.query)
        assignment = jen.coordinator.plan_scan("L")
        reference = HeavyHitterDetector(len(jen.workers))
        for worker in jen.workers:
            blocks = list(assignment.blocks_for(worker.worker_id))
            _wire, _stats, feed = reference_scan(
                worker, meta, blocks, request)
            for entry in feed:
                if entry[0] == "keys":
                    reference.observe(np.asarray(entry[1], dtype=np.int64))
        expected = reference.hot_key_set()
        assert expected is not None and len(expected) > 0

        detector = HeavyHitterDetector(len(jen.workers))
        for worker in jen.workers:
            worker.scan_filter_project(
                meta, list(assignment.blocks_for(worker.worker_id)),
                request, observers=(detector,))
        actual = detector.hot_key_set()
        assert np.array_equal(actual.keys, expected.keys)
        assert np.array_equal(actual.fanouts, expected.fanouts)
        assert detector.total == reference.total


# ----------------------------------------------------------------------
# Fault hook: consulted before every read, partial batch discarded
# ----------------------------------------------------------------------
class TestFaultHook:
    def test_partial_stats_cover_exactly_the_blocks_read(self, scan_setup):
        worker, meta, blocks, request, db_bloom = scan_setup
        crash_at = len(blocks) // 2
        assert crash_at >= 1
        _wire, expected, _feed = reference_scan(
            worker, meta, blocks[:crash_at], request, db_bloom)
        local_bloom = new_local_bloom()
        observed = []
        with pytest.raises(CrashSignal) as crash:
            worker.scan_filter_project(
                meta, blocks, request, db_bloom=db_bloom,
                local_bloom=local_bloom, faults=ScanFaultHook(crash_at),
                observers=(BlockLog(observed),))
        partial = crash.value.stats
        assert partial.rows_scanned == expected.rows_scanned
        assert partial.stored_bytes_scanned == expected.stored_bytes_scanned
        assert partial.rows_after_predicates == \
            expected.rows_after_predicates > 0
        assert partial.local_blocks == expected.local_blocks
        assert partial.remote_blocks == expected.remote_blocks
        assert partial.local_blocks + partial.remote_blocks == crash_at
        # The unprocessed batch died with the worker.
        assert local_bloom.is_empty() and local_bloom.num_added == 0
        assert observed == []

    def test_hook_sees_every_index_in_order(self, scan_setup):
        worker, meta, blocks, request, _db_bloom = scan_setup

        class Recorder:
            def __init__(self):
                self.calls = []

            def before_block(self, worker_id, index, stats):
                self.calls.append(
                    (worker_id, index,
                     stats.local_blocks + stats.remote_blocks))

        recorder = Recorder()
        worker.scan_filter_project(meta, blocks, request, faults=recorder)
        assert recorder.calls == [
            (WORKER, index, index) for index in range(len(blocks))]

    @pytest.mark.parametrize("algorithm", ["zigzag", "db(BF)"])
    def test_armed_scan_crash_still_equals_the_oracle(self, algorithm):
        case = generator.generate_data_case(2005)
        warehouse = generator.build_cell_warehouse(case, 4, "parquet")
        injector = warehouse.arm_faults(FaultPlan.from_spec("crash:w2@scan"))
        try:
            result = algorithm_by_name(algorithm).run(warehouse, case.query)
        finally:
            warehouse.disarm_faults()
        assert injector.crashes == 1
        assert injector.blocks_reassigned > 0
        assert oracle.compare_tables(
            result.result, case.oracle_rows()) is None


# ----------------------------------------------------------------------
# Adaptive plane: the switch fires while replaying the same block
# ----------------------------------------------------------------------
def test_forced_switch_fires_at_the_same_block():
    """A 10x sigma_L underestimate forces db(BF) -> HDFS side at the
    first fractional checkpoint.  Fed per block, that is block
    ``ceil(mark * total)`` of the scan in work-queue order; the batch
    replay has to stop there too, having shown the collector exactly
    those blocks' rows."""
    case = generator.generate_data_case(2005)
    warehouse = generator.build_cell_warehouse(case, 4, "parquet")
    jen = warehouse.jen
    assignment = jen.coordinator.plan_scan("L")
    queue_order = [
        block for worker in jen.workers
        for block in assignment.blocks_for(worker.worker_id)
    ]
    mark = CHECKPOINTS[0]
    switch_block = math.ceil(mark * len(queue_order))
    rows_until_switch = sum(
        warehouse.hdfs.read_block(block).num_rows
        for block in queue_order[:switch_block])

    result = AdaptiveJoin(estimate_errors=(1.0, 0.1)).run(
        warehouse, case.query)
    report = result.trace.metadata["adaptive"]
    assert report["switched"]
    abandoned = report["segments"][0]
    assert abandoned["total_blocks"] == len(queue_order)
    assert abandoned["blocks_done"] == switch_block
    assert abandoned["rows_scanned"] == rows_until_switch
    assert report["switches"][0]["at_progress"] == pytest.approx(
        switch_block / len(queue_order))
    assert oracle.compare_tables(result.result, case.oracle_rows()) is None


# ----------------------------------------------------------------------
# One Bloom step per query against per-worker filters
# ----------------------------------------------------------------------
def reference_queue_scan(jen, request, db_bloom=None, insert=False,
                         seed=11, observers=()):
    """The scan work queue with per-worker filters, merged at the end.

    Every task runs its worker's whole pipeline, Bloom step included
    (``scan_filter_project`` with that worker's own BF_H, feeding
    ``observers``); a crashed worker's partial output and filter are
    dropped and its blocks dealt to the survivors; the per-worker
    filters are OR-merged with ``BloomFilter.combine``.  Returns
    ``(wire_tables, stats, bf_h)``.
    """
    meta = jen.coordinator.table_meta("L")
    injector = jen.injector
    assignment = jen.coordinator.plan_scan("L")
    blooms = {
        worker.worker_id: BloomFilter(jen.config.bloom_bits(),
                                      jen.config.bloom.num_hashes, seed)
        for worker in jen.workers
    } if insert else {}
    tasks = deque((worker, list(assignment.blocks_for(worker.worker_id)))
                  for worker in jen.workers)
    pieces = {worker.worker_id: [] for worker in jen.workers}
    stats = ScanStats()

    def deal(dead, blocks):
        if not blocks:
            return
        by_id = {worker.worker_id: worker for worker in jen.workers}
        for survivor, chunk in jen.coordinator.reassign_blocks(dead, blocks):
            tasks.append((by_id[survivor], chunk))

    for observer in observers:
        observer.on_scan_begin(sum(len(blocks) for _worker, blocks in tasks))
    while tasks:
        worker, blocks = tasks.popleft()
        if worker not in jen.workers:
            deal(worker.worker_id, blocks)
            continue
        crash_at = (injector.scan_crash_block(worker.worker_id, len(blocks))
                    if injector is not None else None)
        try:
            if crash_at is not None and not blocks:
                raise CrashSignal(worker.worker_id, ScanStats())
            wire, task_stats = worker.scan_filter_project(
                meta, blocks, request, db_bloom=db_bloom,
                local_bloom=blooms.get(worker.worker_id),
                faults=(ScanFaultHook(crash_at)
                        if crash_at is not None else None),
                observers=observers)
        except CrashSignal as crash:
            jen.fail_worker(worker.worker_id)
            pieces.pop(worker.worker_id)
            blooms.pop(worker.worker_id, None)
            stats.rows_discarded += crash.stats.rows_scanned
            stats.blocks_reassigned += len(blocks)
            injector.record_scan_crash(
                worker.worker_id, crash.stats.rows_scanned,
                len(blocks), len(jen.workers))
            deal(worker.worker_id, blocks)
            continue
        pieces[worker.worker_id].append(wire)
        stats = stats.merge(task_stats)
    wire_tables = [Table.concat(pieces[worker.worker_id])
                   for worker in jen.workers]
    merged = (BloomFilter.combine([blooms[worker.worker_id]
                                   for worker in jen.workers])
              if insert else None)
    return wire_tables, stats, merged


class _Feed(BlockLog):
    """The per-block feed, in order: the key slices of every
    heavy-hitter detector and this observer's block counts."""

    def __init__(self, monkeypatch):
        super().__init__([])
        observe = HeavyHitterDetector.observe
        events = self.events

        def recording_observe(detector, keys):
            events.append(("keys", np.asarray(keys).tolist()))
            return observe(detector, keys)

        monkeypatch.setattr(HeavyHitterDetector, "observe",
                            recording_observe)

    def take(self):
        events = list(self.events)
        self.events.clear()
        return events


def _query_case(workers=4, l_rows=None):
    """Warehouse, scan request and a BF_DB as the EDW builds it."""
    case = generator.generate_data_case(2005)
    if l_rows is not None:
        case = generator.with_rows(case, range(case.t_table.num_rows),
                                   range(l_rows))
    warehouse = generator.build_cell_warehouse(case, workers, "parquet")
    query = case.query
    db_bloom = warehouse.database.build_global_bloom(
        "T", query.db_predicate, query.db_join_key,
        num_bits=warehouse.config.bloom_bits(),
        num_hashes=warehouse.config.bloom.num_hashes).bloom
    return warehouse, ScanRequest.from_query(query), db_bloom


@pytest.fixture(scope="module")
def query_case():
    return _query_case()


def _both_scans(warehouse, request, db_bloom, insert, feed, faults=None):
    """``[(result, feed, injector)]`` of the reference, then of the
    query-wide scan, each on a full cluster with ``faults`` armed
    afresh, each watched by a heavy-hitter detector (whose hot keys end
    the result) and then ``feed``."""
    sides = []
    for run in ("reference", "query-wide"):
        injector = (warehouse.arm_faults(FaultPlan.from_spec(faults))
                    if faults else None)
        detector = HeavyHitterDetector(warehouse.jen.num_workers)
        try:
            if run == "reference":
                result = reference_queue_scan(
                    warehouse.jen, request, db_bloom, insert,
                    observers=(detector, feed))
            else:
                scan = warehouse.jen.scan_with_request(
                    "L", request, db_bloom=db_bloom,
                    build_hdfs_bloom=insert, observers=(detector, feed))
                result = (scan.wire_tables, scan.stats, scan.hdfs_bloom)
            result += (detector.hot_key_set(),)
            sides.append((result, feed.take(), injector))
        finally:
            if faults:
                warehouse.disarm_faults()
    return sides


def assert_same_scan(reference, actual):
    (ref_wires, ref_stats, ref_bloom, ref_hot), ref_feed, ref_inj = reference
    (wires, stats, bloom, hot), feed, injector = actual
    assert len(wires) == len(ref_wires)
    for wire, ref_wire in zip(wires, ref_wires):
        assert_same_table(wire, ref_wire)
    assert stats == ref_stats
    if ref_bloom is None:
        assert bloom is None
    else:
        assert_same_bloom(bloom, ref_bloom)
        assert bloom.num_added == stats.rows_after_bloom
    assert feed == ref_feed
    assert sum(entry[0] == "block" for entry in feed) == \
        stats.local_blocks + stats.remote_blocks
    if ref_hot is None:
        assert hot is None
    else:
        assert np.array_equal(hot.keys, ref_hot.keys)
        assert np.array_equal(hot.fanouts, ref_hot.fanouts)
    if ref_inj is not None:
        assert injector.fired == ref_inj.fired
        assert injector.crashes == ref_inj.crashes
        assert injector.blocks_reassigned == ref_inj.blocks_reassigned
        assert injector.rows_discarded == ref_inj.rows_discarded


_MODES = [
    pytest.param(True, True, id="zigzag"),
    pytest.param(True, False, id="db(BF)"),
    pytest.param(False, True, id="insert-only"),
    pytest.param(False, False, id="no-bloom"),
]


class TestQueryWideBloomStep:
    @pytest.mark.parametrize("probe,insert", _MODES)
    def test_equals_per_worker_filters(self, query_case, monkeypatch,
                                       probe, insert):
        warehouse, request, db_bloom = query_case
        reference, actual = _both_scans(
            warehouse, request, db_bloom if probe else None, insert,
            _Feed(monkeypatch))
        assert_same_scan(reference, actual)
        stats = actual[0][1]
        if probe:
            assert 0 < stats.rows_after_bloom < stats.rows_after_predicates

    @pytest.mark.parametrize("probe,insert", _MODES)
    def test_crash_with_recovery_tasks(self, query_case, monkeypatch,
                                       probe, insert):
        warehouse, request, db_bloom = query_case
        reference, actual = _both_scans(
            warehouse, request, db_bloom if probe else None, insert,
            _Feed(monkeypatch), faults="crash:w2@scan")
        assert_same_scan(reference, actual)
        injector = actual[2]
        assert injector.crashes == 1 and injector.blocks_reassigned > 0
        assert actual[0][1].rows_discarded > 0
        assert len(actual[0][0]) == 3      # w2's wire table is gone

    @pytest.mark.parametrize("faults", [None, "crash:w6@scan"])
    def test_workers_with_zero_blocks(self, monkeypatch, faults):
        """Five blocks over eight workers: three scan nothing (and one
        of them crashes with nothing to hand over)."""
        warehouse, request, db_bloom = _query_case(workers=8, l_rows=500)
        assignment = warehouse.jen.coordinator.plan_scan("L")
        counts = [len(list(assignment.blocks_for(worker.worker_id)))
                  for worker in warehouse.jen.workers]
        assert counts.count(0) >= 3 and counts[6] == 0
        reference, actual = _both_scans(
            warehouse, request, db_bloom, True, _Feed(monkeypatch),
            faults=faults)
        assert_same_scan(reference, actual)
        assert all(wire.schema.names == request.wire_columns
                   for wire in actual[0][0])

    def test_one_bloom_call_per_filter(self, query_case, monkeypatch):
        """The zigzag scan probes BF_DB once and inserts into BF_H once
        per query, whatever the worker count."""
        warehouse, request, db_bloom = query_case
        calls = []
        for name in ("add", "contains"):
            original = getattr(BloomFilter, name)

            def counted(bloom, keys, _name=name, _original=original):
                calls.append((_name, bloom.seed, np.size(keys)))
                return _original(bloom, keys)

            monkeypatch.setattr(BloomFilter, name, counted)
        scan = warehouse.jen.scan_with_request(
            "L", request, db_bloom=db_bloom, build_hdfs_bloom=True)
        assert [(name, seed) for name, seed, _keys in calls] == [
            ("contains", 7), ("add", 11)]
        assert calls[0][2] == scan.stats.rows_after_predicates
        assert calls[1][2] == scan.stats.rows_after_bloom

    def test_forced_switch_at_the_same_block(self, query_case,
                                             monkeypatch):
        """A stub observer votes to switch at a block inside the second
        worker's task: both scans stop replaying there, having shown
        the observer exactly the same blocks."""
        warehouse, request, db_bloom = query_case
        assignment = warehouse.jen.coordinator.plan_scan("L")
        switch_at = len(list(assignment.blocks_for(0))) + 3
        feed = _Feed(monkeypatch)

        class SwitchAt(BlockLog):
            blocks = 0

            def on_scan_block(self, *counts_and_keys):
                super().on_scan_block(*counts_and_keys)
                self.blocks += 1
                if self.blocks == switch_at:
                    raise SwitchSignal(SimpleNamespace(
                        target="stub", at_progress=self.blocks / self.total))

        seen = []
        for run in ("reference", "query-wide"):
            context = SwitchAt(feed.events)
            with pytest.raises(SwitchSignal):
                if run == "reference":
                    reference_queue_scan(warehouse.jen, request, db_bloom,
                                         insert=True, observers=(context,))
                else:
                    warehouse.jen.scan_with_request(
                        "L", request, db_bloom=db_bloom,
                        build_hdfs_bloom=True, observers=(context,))
            seen.append((context.blocks, feed.take()))
        assert seen[0] == seen[1]
        assert seen[1][0] == switch_at
        assert len(seen[1][1]) == switch_at
        assert warehouse.jen._scan_depth == 0
