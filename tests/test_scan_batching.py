"""The worker-batched JEN scan against a per-block reference loop.

``JenWorker.scan_filter_project`` reads a worker's blocks one by one
but runs gather, Bloom step, derive and projection once over the whole
batch.  ``reference_scan`` below is the same pipeline written the
obvious way — one block at a time, one concat at the end — and every
observable of the batched scan must equal it: wire rows and their
order, ``ScanStats``, the BF_H words, and the sequence of per-block
observer calls.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.adaptive import AdaptiveConfig, AdaptiveJoin, hooks
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
    observers are owed, in order: ``("keys", [...])`` then
    ``("block", rows, bytes, after_predicates, after_bloom, applied)``.
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
        middle = worker.filesystem.read_block(blocks[1]).column("joinKey")
        narrow = dataclasses.replace(
            request,
            predicate=request.predicate & UdfPredicate(
                "not_block_1", "joinKey",
                lambda keys: np.full(len(keys), keys is not middle)),
        )
        _wire, _stats, feed = reference_scan(
            worker, meta, blocks, narrow, db_bloom)
        blocks_fed = [entry for entry in feed if entry[0] == "block"]
        assert blocks_fed[1][3] == 0          # nothing survives block 1
        assert any(entry[4] for entry in blocks_fed)
        seen = []
        with hooks.observing_blocks(lambda *args: seen.append(args)):
            worker.scan_filter_project(meta, blocks, narrow,
                                       db_bloom=db_bloom)
        assert seen == [entry[1:] for entry in blocks_fed]

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


# ----------------------------------------------------------------------
# Per-block observers are fed off the batch
# ----------------------------------------------------------------------
class _RecordingDetector:
    """Forwards to a real detector, logging each observation."""

    def __init__(self, events, num_workers):
        self.events = events
        self.detector = HeavyHitterDetector(num_workers)

    def observe(self, keys):
        self.events.append(("keys", np.asarray(keys).tolist()))
        self.detector.observe(keys)


class TestObserverReplay:
    def test_hook_sequence_equals_the_per_block_feed(self, scan_setup):
        worker, meta, blocks, request, db_bloom = scan_setup
        _wire, _stats, feed = reference_scan(
            worker, meta, blocks, request, db_bloom)
        events = []
        recorder = _RecordingDetector(events, num_workers=4)
        with hooks.detecting_skew(recorder), hooks.observing_blocks(
                lambda *args: events.append(("block",) + args)):
            worker.scan_filter_project(meta, blocks, request,
                                       db_bloom=db_bloom)
        assert events == feed
        assert len([e for e in events if e[0] == "block"]) == len(blocks)

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
        with hooks.detecting_skew(detector):
            for worker in jen.workers:
                worker.scan_filter_project(
                    meta, list(assignment.blocks_for(worker.worker_id)),
                    request)
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
        with hooks.observing_blocks(lambda *args: observed.append(args)):
            with pytest.raises(CrashSignal) as crash:
                worker.scan_filter_project(
                    meta, blocks, request, db_bloom=db_bloom,
                    local_bloom=local_bloom,
                    faults=ScanFaultHook(crash_at))
        partial = crash.value.stats
        assert partial.rows_scanned == expected.rows_scanned
        assert partial.stored_bytes_scanned == expected.stored_bytes_scanned
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
    mark = AdaptiveConfig().checkpoints[0]
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
