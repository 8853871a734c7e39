"""The shuffle's cut: route from the key domain, ship only the rows a
probe can reach.

When the senders' integer join keys span at most two values per row,
:meth:`JenWorker.partition_for_exchange` works from the key domain: it
hashes the span once, counts each sender's rows per key — ``routed``,
what the shuffle is priced at — and splits only the rows whose key
some T′ key equals — ``kept``, what travels.  Proved here against the
row-by-row reference (``tests/kernel_reference.naive_exchange_cut``)
over every integer key dtype, spans, hit rates and sender counts; and,
at engine level, each run with the cut equals the same run with the
cut declined in every recorded field (result rows, stats, slot loads,
phases): spilling, a shuffle-time crash, message faults, late
materialization.  A run whose shuffle split a hot key ships every
routed row; a run that found none cuts.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import algorithm_by_name
from repro.core.joins import ExecutionContext
from repro.edw.partitioner import agreed_hash_partition
from repro.faults import FaultInjector, FaultPlan
from repro.jen import worker
from repro.jen.engine import Jen
from repro.jen.worker import JenWorker
from repro.latemat import set_late_materialization_enabled
from repro.relational.schema import Column, DataType, Schema
from repro.relational.table import Table
from repro.testkit import generator, oracle
from repro.testkit.invariants import InvariantChecker
from tests.kernel_reference import naive_exchange_cut
from tests.test_build_cut import KEY_DTYPES, draw_keys, draw_probe
from tests.test_trace_identity import dump


def sender_wires(keys: np.ndarray, sizes) -> list:
    """One wire per sender, consecutive slices of one table over
    ``keys`` (their dtype kept); ``v`` numbers the rows."""
    schema = Schema([Column("k", DataType.INT64),
                     Column("v", DataType.INT32)])
    source = Table._view(schema, {
        "k": keys, "v": np.arange(keys.size, dtype=np.int32)}, {})
    bounds = np.concatenate(([0], np.cumsum(sizes))).astype(int)
    return [source.slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def exchange(wires, num_workers, probe_keys):
    """The exchange under an invariant checker, which checks it once."""
    checker = InvariantChecker()
    parts, routed, kept, hot_rows = JenWorker.partition_for_exchange(
        wires, "k", num_workers, observers=(checker,),
        probe_keys=probe_keys)
    assert hot_rows == 0
    assert checker.counts == {"hash_partition": 1}
    return parts, routed, kept


def assert_same_parts(parts, expected):
    """``expected[d]`` holds destination ``d``'s per-sender tables."""
    assert len(parts) == len(expected)
    for part, pieces in zip(parts, expected):
        for name in ("k", "v"):
            want = np.concatenate([piece.column(name) for piece in pieces])
            assert part.column(name).dtype == want.dtype
            assert np.array_equal(part.column(name), want)


def sizes_of(rng, senders, total):
    """``total`` rows over ``senders`` senders, some of them empty."""
    cuts = np.sort(rng.integers(0, total + 1, size=senders - 1))
    return np.diff(np.concatenate(([0], cuts, [total])))


# ----------------------------------------------------------------------
# 1. The key-domain route against the row-by-row reference
# ----------------------------------------------------------------------
class TestKeyDomainRoute:
    @given(seed=st.integers(0, 2**32 - 1),
           key_dtype=st.sampled_from(KEY_DTYPES),
           probe_dtype=st.sampled_from(KEY_DTYPES),
           senders=st.sampled_from([1, 2, 7, 30]),
           workers=st.sampled_from([1, 4, 30]),
           rows=st.integers(0, 300), probe_rows=st.integers(0, 60),
           span_per_row=st.sampled_from([0.1, 1.0, 2.0, 3.0, 8.0]),
           at=st.sampled_from(["min", "zero", "max"]),
           hits=st.sampled_from(["none", "some", "all"]))
    @settings(max_examples=250, deadline=None)
    def test_equals_the_per_row_reference(
            self, seed, key_dtype, probe_dtype, senders, workers, rows,
            probe_rows, span_per_row, at, hits):
        rng = np.random.default_rng(seed)
        span = max(1, int(rows * span_per_row))
        keys, _low = draw_keys(rng, key_dtype, rows, span, at)
        # A probe key the probe dtype cannot hold arrives wrapped, as
        # uint64 probe keys against negative int32 build keys do.
        probe = draw_probe(rng, probe_dtype, keys, probe_rows, hits) \
            if np.can_cast(key_dtype, probe_dtype) \
            else draw_probe(rng, key_dtype, keys, probe_rows,
                            hits).astype(probe_dtype, casting="unsafe")
        wires = sender_wires(keys, sizes_of(rng, senders, rows))
        parts, routed, kept = exchange(wires, workers, probe)
        values = keys.tolist()
        fires = bool(values) and max(values) - min(values) < 2 * len(values)
        cut, expected_routed, expected_kept = naive_exchange_cut(
            wires, "k", workers, probe if fires else keys,
            agreed_hash_partition)
        assert routed.dtype == kept.dtype == np.int64
        assert np.array_equal(routed, expected_routed)
        assert np.array_equal(kept, expected_kept if fires else routed)
        assert_same_parts(parts, cut)

    @pytest.mark.parametrize("keys, probe", [
        # Float keys, float probe keys: neither can index a span.
        (np.array([1.0, 2.0, 2.0, 5.0]), np.array([2.0])),
        (np.array([1, 2, 2, 5]), np.array([2.0])),
        # Nine values over four rows: the span is past twice the rows.
        (np.array([0, 8, 8, 3]), np.array([3])),
    ], ids=["float-keys", "float-probe-keys", "span-past-twice-the-rows"])
    def test_declines_and_ships_every_row(self, keys, probe):
        wires = sender_wires(keys, [1, 0, 3])
        parts, routed, kept = exchange(wires, 4, probe)
        assert np.array_equal(kept, routed)
        assert sum(part.num_rows for part in parts) == keys.size

    @pytest.mark.parametrize("probe", [
        np.empty(0, dtype=np.int32), np.array([900, -900], dtype=np.int64),
        np.array([2**64 - 1], dtype=np.uint64),
    ], ids=["empty-t-prime", "probe-keys-outside-the-span",
            "uint64-probe-keys"])
    def test_a_probe_reaching_nothing_ships_nothing(self, probe):
        keys = np.array([-3, 4, 4, 0, -1, 2], dtype=np.int32)
        parts, routed, kept = exchange(sender_wires(keys, [2, 4]), 4, probe)
        assert routed.sum() == keys.size
        assert kept.sum() == 0
        assert all(part.num_rows == 0 for part in parts)

    def test_all_senders_empty(self):
        parts, routed, kept = exchange(
            sender_wires(np.empty(0, dtype=np.int32), [0, 0, 0]), 4,
            np.array([1], dtype=np.int32))
        assert routed.shape == kept.shape == (3, 4)
        assert routed.sum() == kept.sum() == 0
        assert all(part.num_rows == 0 for part in parts)


# ----------------------------------------------------------------------
# 2. Whole runs: the cut changes nothing a run records
# ----------------------------------------------------------------------
class CutLog:
    """Counts the key-domain routes that ran (``fired``) and declined,
    with the rows they kept and routed; ``decline=True`` makes every
    one decline, as a span past twice the rows does."""

    def __init__(self, decline: bool = False):
        self.decline = decline
        self.fired = self.declined = self.kept = self.routed = 0

    def __enter__(self):
        route = worker._key_domain_codes

        def logged(keys, num_workers, probe_keys):
            codes = None if self.decline \
                else route(keys, num_workers, probe_keys)
            if codes is None:
                self.declined += 1
            else:
                self.fired += 1
                self.routed += codes.size
                self.kept += int(np.count_nonzero(codes < num_workers))
            return codes

        self._patch = mock.patch.object(worker, "_key_domain_codes",
                                        logged)
        self._patch.start()
        return self

    def __exit__(self, *exc):
        self._patch.stop()


def run(case, algorithm, workers=4, fault_spec=None, latemat=False,
        budget=0.0, decline=False, shuffle_skew=None):
    """One checked run on a fresh warehouse, and its cut log.  The
    shuffle is priced at ``shuffle_skew``, or at the case's skew."""
    warehouse = generator.build_cell_warehouse(case, workers, "parquet")
    if budget:
        warehouse.config = dataclasses.replace(
            warehouse.config, jen_memory_budget_rows=budget)
    if shuffle_skew is not None:
        warehouse.config = dataclasses.replace(
            warehouse.config, shuffle_skew=shuffle_skew)
    context = ExecutionContext(
        observers=(InvariantChecker(),),
        faults=(FaultInjector(FaultPlan.from_spec(fault_spec))
                if fault_spec else None))
    previous = set_late_materialization_enabled(latemat)
    try:
        with CutLog(decline) as log:
            result = algorithm_by_name(algorithm).run(
                warehouse, case.query, context)
    finally:
        set_late_materialization_enabled(previous)
    oracle.assert_equivalent(result.result, case.oracle_rows())
    return result, log


CASE = generator.generate_data_case(2015)
WIDE = generator.edge_case("wide-dtypes")

ENGINE_CELLS = {
    "repartition": (CASE, "repartition", {}),
    "zigzag": (CASE, "zigzag", {}),
    "semijoin": (CASE, "semijoin", {}),
    "perf": (CASE, "perf", {}),
    "spill-budget": (CASE, "repartition", {"budget": 40_000.0}),
    "spill-fault": (CASE, "repartition", {"fault_spec": "spill:x0.5"}),
    "crash-at-shuffle": (CASE, "repartition",
                         {"fault_spec": "crash:w2@shuffle"}),
    "message-faults": (CASE, "repartition", {
        "workers": 30, "fault_spec": "drop:shuffle:0.05,dup:shuffle:0.2"}),
    "latemat": (WIDE, "repartition", {"latemat": True}),
}


@pytest.mark.parametrize("name", sorted(ENGINE_CELLS))
def test_the_cut_changes_nothing_a_run_records(name):
    """Oracle-equal, and the same record as the run whose every route
    declined: rows, stats (spilled tuples, stitch fetches, fault
    counters), slot loads and every phase."""
    case, algorithm, axes = ENGINE_CELLS[name]
    cut, log = run(case, algorithm, **axes)
    assert log.fired >= 1 and log.declined == 0
    if algorithm == "repartition":
        assert log.kept < log.routed
    else:
        # L′ arrives pruned by T′'s keys (exactly, or by BF_DB), so the
        # cut keeps what the filter's false positives let through.
        assert log.kept <= log.routed
    full, full_log = run(case, algorithm, decline=True, **axes)
    assert full_log.fired == 0 and full_log.declined == log.fired
    assert dump(cut) == dump(full)
    if name.startswith("spill"):
        assert cut.stats.spilled_tuples > 0
    if name == "latemat":
        assert any(phase.name == "payload_fetch_l" for phase in cut.trace)


def shuffled_rows(**run_args):
    """``(result, log, routed, delivered)`` of one checked run: the
    rows its shuffle routed, and those it delivered."""
    shuffled = []
    original = Jen.shuffle_by_key

    def spied(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        shuffled.append((result.tuples_shuffled, sum(
            part.num_rows for part in result.per_destination)))
        return result

    with mock.patch.object(Jen, "shuffle_by_key", spied):
        result, log = run(**run_args)
    [(routed, delivered)] = shuffled
    return result, log, routed, delivered


def test_a_run_that_split_a_hot_key_ships_every_routed_row():
    """Work stealing re-deals the rows that arrived, so a run whose
    shuffle split a hot key asks for no cut."""
    result, log, routed, delivered = shuffled_rows(
        case=generator.skewed_case(1.8), algorithm="repartition",
        workers=30)
    assert result.stats.hot_keys_detected > 0
    assert result.stats.stolen_tuples > 0
    assert log.fired == log.declined == 0
    assert delivered == routed


@pytest.mark.parametrize("name", ["skewed-priced-at-1",
                                  "uniform-priced-at-4"])
def test_a_run_that_found_no_hot_key_cuts(name):
    """The skewed case priced at 1 counts nothing; uniform keys priced
    at 4 are counted, and no split is needed to beat that.  Both hash
    every row, and only the rows a probe can reach travel."""
    case, workers, shuffle_skew = {
        "skewed-priced-at-1": (generator.skewed_case(1.8), 30, 1.0),
        "uniform-priced-at-4": (generator.skewed_case(0.0), 4, 4.0),
    }[name]
    result, log, routed, delivered = shuffled_rows(
        case=case, algorithm="repartition", workers=workers,
        shuffle_skew=shuffle_skew)
    assert result.stats.hot_keys_detected == 0
    assert log.fired == 1
    assert delivered == log.kept < routed
