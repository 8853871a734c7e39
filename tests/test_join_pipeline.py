"""The batch carried past the scan, against the obvious reference loops.

Four mechanisms replaced row-table plumbing with index arithmetic;
each is compared here with the form it replaced, written the obvious
way inside the test:

1. ``join_aggregate`` (probe -> index pairs -> narrow gathers)
   against the pipeline spelled out in ``reference_partial`` — which
   materialises every joined column — and against the testkit oracle;
2. the one-pass exchange (``JenWorker.partition_for_exchange`` +
   ``exchange.shuffle``, and ``_route_db_rows``) against one naive
   per-destination filter (``tests/kernel_reference.py``) per sender
   and one ``concat`` per destination;
3. the packed-word ``JoinBuildIndex`` against ``np.argsort(kind=
   "stable")`` on both sides of its domain guard;
4. the band-aware probe (a ``JoinBuildIndex`` over (key, date) words
   that yields only the pairs inside the post-join predicate's band)
   against the pair-materialising path it replaced: every key match,
   the predicate's columns gathered at all of them, then compressed.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
import pytest

from repro.core.joins.repartition import _route_db_rows
from repro.edw.database import DbJoinRunStats
from repro.edw.optimizer import DbJoinChoice, DbJoinStrategy
from repro.edw.partitioner import agreed_hash_partition
from repro.errors import (
    ExpressionError,
    InvariantViolation,
    SchemaError,
    TableError,
)
from repro.faults import FaultInjector, FaultPlan
from repro.jen.engine import LocalJoinStats
from repro.jen.exchange import ShuffleResult, shuffle
from repro.jen.spill import fragment_tables, plan_spill
from repro.jen.worker import JenWorker
from repro.kernels import joinindex
from repro.kernels.joinindex import JoinBuildIndex
from repro.kernels.partition import partition_table
from repro.query.plan import (
    GROUP_BUILD_ROWS, join_aggregate, join_band, merge_partials)
from repro.query.query import HybridQuery
from repro.relational.aggregates import AggregateSpec, group_by_aggregate
from repro.relational.expressions import (
    BetweenDayDiff,
    ColumnPairPredicate,
    CompareOp,
    TruePredicate,
    UdfPredicate,
    compare,
)
from repro.relational.operators import joined_rows
from repro.relational.schema import Column, DataType, Schema
from repro.relational.table import Table
from repro.service.cache import CachingJoinIndexProvider, JoinIndexCache
from repro.skew import STEAL_THRESHOLD, HotKeySet
from repro.testkit import generator, oracle
from repro.testkit.invariants import InvariantChecker
from tests.conftest import split_table
from tests.kernel_reference import (
    naive_partition_table,
    naive_reachable_rows,
)
from tests.test_scan_batching import assert_same_table


# ----------------------------------------------------------------------
# 1. Fused join -> aggregate
# ----------------------------------------------------------------------
def join_inputs(case):
    """T' and the L wire table of ``case``, as every engine's worker
    sees them (filter, project, derive — no distribution)."""
    query = case.query
    t_part = case.t_table.filter(
        query.db_predicate.evaluate(case.t_table)
    ).project(list(query.db_projection))
    l_rows = case.l_table.filter(
        query.hdfs_predicate.evaluate(case.l_table)
    ).project(list(query.hdfs_projection))
    for derived in query.hdfs_derived:
        l_rows = derived.apply(l_rows)
    return t_part, l_rows.project(list(query.hdfs_wire_columns()))


def reference_partial(t_part, l_part, query):
    """Materialise every joined column, then filter, then group."""
    build_idx, probe_idx = joinindex.probe_join(
        l_part.column(query.hdfs_join_key), t_part.column(query.db_join_key))
    joined = joined_rows(l_part, t_part, build_idx, probe_idx,
                         query.hdfs_prefix, query.db_prefix, names=None)
    pairs = joined.num_rows
    if query.post_join_predicate is not None:
        joined = joined.filter(query.post_join_predicate.evaluate(joined))
    partial = group_by_aggregate(joined, list(query.group_by),
                                 list(query.aggregates))
    return partial, pairs


def assert_fused_equals_reference(t_part, l_part, query, **kwargs):
    partial, pairs = join_aggregate([(t_part, l_part)], query, **kwargs)
    expected, expected_pairs = reference_partial(t_part, l_part, query)
    assert pairs == expected_pairs
    assert_same_table(partial, expected)
    return partial


SUM_MIN_MAX_BOTH_SIDES = (
    AggregateSpec("count"),
    AggregateSpec("sum", "t_predAfterJoin"),
    AggregateSpec("sum", "l_predAfterJoin"),
    AggregateSpec("min", "t_joinKey"),
    AggregateSpec("max", "l_joinKey"),
    AggregateSpec("min", "l_predAfterJoin"),
    AggregateSpec("max", "t_predAfterJoin"),
)


class TestFusedJoinAggregate:
    @pytest.mark.parametrize("seed", range(2015, 2027))
    def test_seeded_grid_matches_reference_and_oracle(self, seed):
        # The generator varies key skew (duplicates on both sides),
        # selectivities, the aggregate list, whether a post-join
        # predicate applies and whether the group-by is the join key.
        case = generator.generate_data_case(seed, t_rows=900, l_rows=3_000)
        t_part, l_part = join_inputs(case)
        partial = assert_fused_equals_reference(t_part, l_part, case.query)
        oracle.assert_equivalent(
            partial,
            oracle.oracle_execute(case.t_table, case.l_table, case.query),
            label=case.name,
        )

    @pytest.mark.parametrize("name", [
        "empty-t-prime", "all-duplicate-keys", "zipf-skew",
        "empty-result", "wide-dtypes",
    ])
    def test_edge_cases_match_reference_and_oracle(self, name):
        case = generator.edge_case(name)
        t_part, l_part = join_inputs(case)
        partial = assert_fused_equals_reference(t_part, l_part, case.query)
        oracle.assert_equivalent(
            partial,
            oracle.oracle_execute(case.t_table, case.l_table, case.query),
            label=name,
        )

    @pytest.fixture(scope="class")
    def base(self):
        case = generator.generate_data_case(2030, t_rows=900, l_rows=3_000)
        t_part, l_part = join_inputs(case)
        assert t_part.num_rows and l_part.num_rows
        return case, t_part, l_part

    @pytest.mark.parametrize("changes", [
        dict(post_join_predicate=None),
        dict(post_join_predicate=TruePredicate()),
        dict(post_join_predicate=compare("l_joinKey", ">=", 3)),
        dict(post_join_predicate=ColumnPairPredicate(
            "t_joinKey", CompareOp.EQ, "l_joinKey")),
        dict(post_join_predicate=BetweenDayDiff(
            "t_predAfterJoin", "l_predAfterJoin", low=500, high=600)),
        dict(aggregates=SUM_MIN_MAX_BOTH_SIDES),
        dict(group_by=("l_joinKey",), aggregates=SUM_MIN_MAX_BOTH_SIDES),
        dict(group_by=("l_urlPrefix", "t_joinKey")),
        dict(group_by=("l_urlPrefix", "l_predAfterJoin"),
             aggregates=SUM_MIN_MAX_BOTH_SIDES),
    ], ids=[
        "no-predicate", "column-less-predicate", "predicate-on-join-key",
        "predicate-on-both-join-keys", "no-surviving-pair",
        "sum-min-max-both-sides", "group-by-join-key",
        "dict-string-plus-int-group-by", "two-column-group-by-all-aggregates",
    ])
    def test_query_shapes(self, base, changes):
        case, t_part, l_part = base
        query = dataclasses.replace(case.query, **changes)
        partial = assert_fused_equals_reference(t_part, l_part, query)
        oracle.assert_equivalent(
            partial,
            oracle.oracle_execute(case.t_table, case.l_table, query),
        )

    def test_empty_build_and_empty_probe(self, base):
        case, t_part, l_part = base
        for t_side, l_side in ((t_part.slice(0, 0), l_part),
                               (t_part, l_part.slice(0, 0)),
                               (t_part.slice(0, 0), l_part.slice(0, 0))):
            partial = assert_fused_equals_reference(
                t_side, l_side, case.query
            )
            assert partial.num_rows == 0

    @staticmethod
    def cut_index_columns(t_part, l_part, query):
        """The columns the one index is asked for: the build rows the
        semi-join cut keeps (:func:`naive_reachable_rows`)."""
        keep = naive_reachable_rows(l_part.column(query.hdfs_join_key),
                                    t_part.column(query.db_join_key))
        build = l_part if keep is None else l_part.take(keep)
        band = join_band(t_part, build, query)
        return (build.column(query.hdfs_join_key),
                None if band is None else build.column(band.build_column))

    def test_supplied_and_stale_build_index(self, base):
        """The service's caching provider serves a cached index only
        when it matches the build columns; a stale one is rebuilt."""
        case, t_part, l_part = base
        columns = self.cut_index_columns(t_part, l_part, case.query)
        # The base case's probes reach 74 of its 594 build rows.
        assert (len(columns[0]), l_part.num_rows) == (74, 594)
        fresh = JoinBuildIndex(*columns)
        stale = JoinBuildIndex(columns[0][::-1].copy(), columns[1])
        assert not stale.matches(*columns)
        for index in (fresh, stale):
            provider = CachingJoinIndexProvider(JoinIndexCache())
            provider.cache.put("query", index)
            assert_fused_equals_reference(
                t_part, l_part, case.query,
                index_for=provider.for_query("query"),
            )
            assert (provider.cache.get("query") is index) == (index is fresh)

    def test_repeated_query_reuses_the_cut_index(self, base):
        """The cut depends only on the query's own rows, so a repeated
        identical query asks for the same columns and gets the index
        its first run cached."""
        case, t_part, l_part = base
        provider = CachingJoinIndexProvider(JoinIndexCache())
        first = assert_fused_equals_reference(
            t_part, l_part, case.query, index_for=provider.for_query("q"))
        cached = provider.cache.get("q")
        assert cached.num_keys == 74 < l_part.num_rows
        with mock.patch.object(
                joinindex.JoinBuildIndex, "__init__",
                side_effect=AssertionError("rebuilt")):
            again, _pairs = join_aggregate(
                [(t_part, l_part)], case.query,
                index_for=provider.for_query("q"))
        assert_same_table(again, first)
        assert provider.cache.get("q") is cached

    def test_supplied_index_skips_the_build(self, base):
        case, t_part, l_part = base
        columns = self.cut_index_columns(t_part, l_part, case.query)
        index = JoinBuildIndex(*columns)
        assert index.num_keys == 74

        def supplied(*asked):
            assert index.matches(*asked)
            return index

        with mock.patch.object(
                joinindex.JoinBuildIndex, "__init__",
                side_effect=AssertionError("rebuilt")):
            partial, _pairs = join_aggregate([(t_part, l_part)], case.query,
                                             index_for=supplied)
        assert_same_table(partial,
                          reference_partial(t_part, l_part, case.query)[0])

    def test_errors_fire_as_in_the_materialising_join(self, base):
        case, t_part, l_part = base
        for changes, error in (
            (dict(aggregates=(AggregateSpec("sum", "l_nope"),)),
             SchemaError),
            (dict(group_by=("nope",)), SchemaError),
            (dict(post_join_predicate=compare("t_nope", ">", 0)),
             SchemaError),
        ):
            query = dataclasses.replace(case.query, **changes)
            with pytest.raises(error, match="nope"):
                reference_partial(t_part, l_part, query)
            with pytest.raises(error, match="nope"):
                join_aggregate([(t_part, l_part)], query)

    def test_column_collision_still_raises(self):
        schema_l = Schema([Column("t_k", DataType.INT64)])
        schema_t = Schema([Column("k", DataType.INT64)])
        l_part = Table(schema_l, {"t_k": np.array([1, 2])})
        t_part = Table(schema_t, {"k": np.array([2, 3])})
        query = HybridQuery(
            db_table="T", hdfs_table="L", db_join_key="k",
            hdfs_join_key="t_k", db_projection=("k",),
            hdfs_projection=("t_k",), group_by=("t_k",),
            db_prefix="t_", hdfs_prefix="",
        )
        with pytest.raises(TableError, match="collision"):
            reference_partial(t_part, l_part, query)
        with pytest.raises(TableError, match="collision"):
            join_aggregate([(t_part, l_part)], query)


# ----------------------------------------------------------------------
# 2. One exchange per shuffle
# ----------------------------------------------------------------------
def wire_table(keys, first_value=0):
    keys = np.asarray(keys, dtype=np.int64)
    schema = Schema([Column("k", DataType.INT64),
                     Column("v", DataType.INT32)])
    return Table(schema, {
        "k": keys,
        "v": first_value + np.arange(keys.size, dtype=np.int32),
    })


def sender_tables(sizes, seed, hot_key=None, hot_share=0.0):
    """One wire table per sender; ``v`` numbers the rows globally."""
    rng = np.random.default_rng(seed)
    tables, first = [], 0
    for size in sizes:
        keys = rng.integers(0, 400, size=size)
        if hot_key is not None:
            keys[rng.random(size) < hot_share] = hot_key
        tables.append(wire_table(keys, first))
        first += size
    return tables


def reference_exchange(wire_tables, key, num_workers, hot_keys=None,
                       faults=None) -> ShuffleResult:
    """Partition every sender, then walk the ``[sender][destination]``
    matrix of parts destination by destination, gluing what each
    receiver accepts."""
    outgoing, hot_tuples = [], 0
    for sender, wire in enumerate(wire_tables):
        if hot_keys is not None and len(hot_keys):
            assignments, hot = JenWorker.hybrid_shuffle_assignments(
                wire, key, num_workers, hot_keys, sender_offset=sender)
            hot_tuples += hot
        else:
            assignments = agreed_hash_partition(wire.column(key),
                                                num_workers)
        outgoing.append(
            naive_partition_table(wire, assignments, num_workers))
    routed = np.array([[part.num_rows for part in parts]
                       for parts in outgoing],
                      dtype=np.int64).reshape(len(outgoing), num_workers)
    result = ShuffleResult(per_destination=[], tuples_shuffled=0,
                           tuples_remote=0, routed=routed,
                           hot_tuples=hot_tuples)
    for destination in range(num_workers):
        accepted, seen = [], set()
        for sender, parts in enumerate(outgoing):
            part = parts[destination]
            copies = 1
            if faults is not None and sender != destination:
                duplicated, failures = faults.deliver(
                    "shuffle", sender, destination)
                result.retries += failures
                copies += duplicated
            for _ in range(copies):
                if sender in seen:
                    result.duplicates_suppressed += 1
                    continue
                seen.add(sender)
                accepted.append(part)
                result.tuples_shuffled += part.num_rows
                if sender != destination:
                    result.tuples_remote += part.num_rows
        result.per_destination.append(Table.concat(accepted))
    return result


def one_pass_exchange(wire_tables, key, num_workers, hot_keys=None,
                      faults=None, observers=()) -> ShuffleResult:
    """What ``Jen.shuffle_by_key`` runs once crashes are dealt with."""
    per_destination, routed, kept, hot_tuples = \
        JenWorker.partition_for_exchange(
            wire_tables, key, num_workers, hot_keys, observers)
    result = shuffle(per_destination, routed, kept, faults=faults,
                     observers=observers)
    result.hot_tuples = hot_tuples
    return result


def assert_same_shuffle(actual: ShuffleResult, expected: ShuffleResult):
    assert len(actual.per_destination) == len(expected.per_destination)
    for got, want in zip(actual.per_destination, expected.per_destination):
        assert_same_table(got, want)
    assert np.array_equal(actual.routed, expected.routed)
    for field in dataclasses.fields(ShuffleResult):
        if field.name not in ("per_destination", "routed"):
            assert (getattr(actual, field.name)
                    == getattr(expected, field.name)), field.name


HOT = HotKeySet(keys=np.array([42, 7], dtype=np.int64),
                fanouts=np.array([3, 2], dtype=np.int64))

SENDER_SHAPES = {
    "even": [120, 80, 100, 90, 110, 70],
    "empty-senders": [0, 150, 0, 0, 200, 0],
    "one-sender-holds-everything": [0, 0, 600, 0, 0, 0],
    "all-empty": [0, 0, 0, 0, 0, 0],
    "fewer-senders-than-workers": [200, 300],
}


class QuietFaults:
    """An injector whose every message arrives once, first time: the
    message walk with nothing to retry or suppress."""

    def __init__(self):
        self.messages = 0

    def deliver(self, _channel, _sender, _destination):
        self.messages += 1
        return False, 0


class AcceptedLog(InvariantChecker):
    """An invariant checker that also keeps each delivery's accepted
    matrix."""

    def __init__(self):
        super().__init__()
        self.accepted = []

    def check_shuffle_delivery(self, routed, per_destination, accepted):
        self.accepted.append(np.asarray(accepted))
        super().check_shuffle_delivery(routed, per_destination, accepted)


class TestOnePassExchange:
    @pytest.mark.parametrize("faults", [None, QuietFaults],
                             ids=["fault-free", "quiet-injector"])
    @pytest.mark.parametrize("shape", sorted(SENDER_SHAPES))
    @pytest.mark.parametrize("hybrid", [False, True],
                             ids=["plain", "hybrid"])
    @pytest.mark.parametrize("checked", [False, True],
                             ids=["unchecked", "invariants-on"])
    def test_rows_and_accounting_match_the_matrix_walk(
            self, shape, hybrid, checked, faults):
        """The counts come off the routed matrix; with an injector (one
        that never fires) every remote message also goes through it.
        Both forms equal the reference walk and check the delivery
        once, every message accepted once."""
        tables = sender_tables(SENDER_SHAPES[shape], seed=3,
                               hot_key=42, hot_share=0.4)
        hot = HOT if hybrid else None
        expected = reference_exchange(tables, "k", 6, hot)
        checker = AcceptedLog()
        injector = None if faults is None else faults()
        actual = one_pass_exchange(tables, "k", 6, hot, faults=injector,
                                   observers=(checker,) if checked else ())
        assert_same_shuffle(actual, expected)
        assert sum(checker.counts.values()) == (2 if checked else 0)
        assert checker.counts["shuffle_delivery"] == (1 if checked else 0)
        for accepted in checker.accepted:
            assert accepted.shape == (len(tables), 6)
            assert (accepted == 1).all()
        if injector is not None:
            # Every remote message went through the injector.
            assert injector.messages == len(tables) * 6 - min(len(tables),
                                                              6)
        assert actual.tuples_shuffled == sum(SENDER_SHAPES[shape])
        if hybrid and sum(SENDER_SHAPES[shape]):
            assert actual.hot_tuples > 0

    @pytest.mark.parametrize("spec", [
        "drop:shuffle:0.3", "dup:shuffle:0.4",
        "drop:shuffle:0.2,dup:shuffle:0.3,trunc:shuffle:0.1",
    ])
    @pytest.mark.parametrize("hybrid", [False, True],
                             ids=["plain", "hybrid"])
    def test_armed_message_faults_draw_and_log_identically(
            self, spec, hybrid):
        tables = sender_tables(SENDER_SHAPES["even"], seed=5,
                               hot_key=7, hot_share=0.3)
        hot = HOT if hybrid else None
        reference_injector = FaultInjector(FaultPlan.from_spec(spec, seed=9))
        injector = FaultInjector(FaultPlan.from_spec(spec, seed=9))
        expected = reference_exchange(tables, "k", 6, hot,
                                      faults=reference_injector)
        actual = one_pass_exchange(tables, "k", 6, hot, faults=injector,
                                   observers=(InvariantChecker(),))
        assert_same_shuffle(actual, expected)
        assert expected.retries + expected.duplicates_suppressed > 0
        assert injector.fired == reference_injector.fired
        assert injector.counters() == reference_injector.counters()

    def test_checks_stay_armed_on_the_one_pass_form(self):
        """Every remote message duplicated: the receivers' dedup keeps
        acceptance exactly-once, and a destination table that disagrees
        with the routed matrix trips conservation."""

        class AlwaysDuplicate:
            def deliver(self, _channel, _sender, _destination):
                return True, 0

        tables = sender_tables([50, 50, 50], seed=6)
        per_destination, routed, _kept, _hot = \
            JenWorker.partition_for_exchange(tables, "k", 3)
        checker = InvariantChecker()
        result = shuffle(per_destination, routed, faults=AlwaysDuplicate(),
                         observers=(checker,))
        assert result.duplicates_suppressed == 6
        assert result.tuples_shuffled == 150
        short = [per_destination[0].slice(1, per_destination[0].num_rows)
                 ] + per_destination[1:]
        with pytest.raises(InvariantViolation, match="conservation"):
            shuffle(short, routed, observers=(checker,))


def reference_route_db_rows(t_parts, key, num_workers, hot_keys=None):
    """Per sender: peel off each hot key's rows, copy them to the key's
    destination set, hash-partition the cold rest; concat per
    destination."""
    hybrid = hot_keys is not None and len(hot_keys) > 0
    per_destination = [[] for _ in range(num_workers)]
    hot_tuples = copy_tuples = 0
    dest_lists = (hot_keys.destination_lists(num_workers,
                                             agreed_hash_partition)
                  if hybrid else [])
    for part in t_parts:
        cold = part
        if hybrid:
            keys = part.column(key)
            cold = part.filter(~np.isin(keys, hot_keys.keys))
            for hot_key, dests in zip(hot_keys.keys, dest_lists):
                hot_rows = part.filter(keys == hot_key)
                hot_tuples += hot_rows.num_rows
                copy_tuples += hot_rows.num_rows * int(dests.size)
                for destination in dests:
                    per_destination[int(destination)].append(hot_rows)
        assignments = agreed_hash_partition(cold.column(key), num_workers)
        for destination, piece in enumerate(
                naive_partition_table(cold, assignments, num_workers)):
            per_destination[destination].append(piece)
    return ([Table.concat(pieces) for pieces in per_destination],
            hot_tuples, copy_tuples)


class TestRouteDbRows:
    @pytest.mark.parametrize("shape", sorted(SENDER_SHAPES))
    def test_plain_routing_is_row_identical(self, shape):
        tables = sender_tables(SENDER_SHAPES[shape], seed=8)
        expected, _hot, _copies = reference_route_db_rows(tables, "k", 6)
        checker = InvariantChecker()
        actual, hot, copies = _route_db_rows(tables, "k", 6,
                                             observers=(checker,))
        assert checker.counts["hash_partition"] == 1
        assert (hot, copies) == (0, 0)
        for got, want in zip(actual, expected):
            assert_same_table(got, want)

    @pytest.mark.parametrize("shape", sorted(SENDER_SHAPES))
    def test_hot_key_duplication_delivers_the_same_multisets(self, shape):
        tables = sender_tables(SENDER_SHAPES[shape], seed=9,
                               hot_key=42, hot_share=0.35)
        expected, want_hot, want_copies = reference_route_db_rows(
            tables, "k", 6, HOT)
        checker = InvariantChecker()
        actual, hot, copies = _route_db_rows(tables, "k", 6, hot_keys=HOT,
                                             observers=(checker,))
        assert checker.counts["broadcast_routing"] == 1
        assert (hot, copies) == (want_hot, want_copies)
        if sum(SENDER_SHAPES[shape]):
            assert copies > hot > 0
        for got, want in zip(actual, expected):
            assert sorted(got.to_rows()) == sorted(want.to_rows())


# ----------------------------------------------------------------------
# 3. Packed-word build index
# ----------------------------------------------------------------------
def assert_index_is_the_stable_sort(keys, expect_packed):
    keys = np.asarray(keys)
    with mock.patch.object(joinindex.np, "argsort",
                           wraps=np.argsort) as argsort:
        index = JoinBuildIndex(keys)
    assert argsort.call_count == (0 if expect_packed else 1)
    order = np.argsort(keys, kind="stable")
    assert index.order.dtype == np.int64
    assert np.array_equal(index.order, order)
    assert index.sorted_keys.dtype == keys.dtype
    assert np.array_equal(index.sorted_keys, keys[order])
    assert index.keys is keys
    return index


class TestPackedWordIndex:
    @pytest.mark.parametrize("distinct", [1, 53, 16_000_000])
    def test_duplicate_heavy_and_sparse_int64(self, distinct):
        rng = np.random.default_rng(distinct)
        keys = rng.integers(0, distinct, size=20_000)
        assert_index_is_the_stable_sort(keys, expect_packed=True)

    def test_negative_keys(self):
        rng = np.random.default_rng(1)
        keys = rng.integers(-10**12, 10**12, size=5_000)
        keys[::7] = keys[0]
        assert_index_is_the_stable_sort(keys, expect_packed=True)
        # A narrow span at either end of int64: min itself is the base.
        for base in (np.iinfo(np.int64).min, np.iinfo(np.int64).max - 99):
            keys = base + rng.integers(0, 100, size=500)
            keys[0] = base
            assert_index_is_the_stable_sort(keys, expect_packed=True)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32,
                                       np.uint32])
    def test_narrow_dtypes_over_their_full_range(self, dtype):
        info = np.iinfo(dtype)
        rng = np.random.default_rng(2)
        keys = rng.integers(info.min, info.max, size=3_000,
                            endpoint=True).astype(dtype)
        keys[:2] = (info.max, info.min)
        assert_index_is_the_stable_sort(keys, expect_packed=True)

    def test_unsigned_keys_beyond_int64(self):
        rng = np.random.default_rng(3)
        keys = (np.uint64(2**63 + 5)
                + rng.integers(0, 1000, size=2_000).astype(np.uint64))
        assert_index_is_the_stable_sort(keys, expect_packed=True)

    @pytest.mark.parametrize("count", [0, 1])
    def test_degenerate_sizes(self, count):
        keys = np.arange(count, dtype=np.int64) + 17
        index = assert_index_is_the_stable_sort(
            keys, expect_packed=count == 1)
        build_idx, probe_idx = index.probe(np.array([17, 18]))
        assert build_idx.tolist() == [0] * count
        assert probe_idx.tolist() == [0] * count

    @pytest.mark.parametrize("span_bits,expect_packed", [
        (52, True), (53, True), (54, False), (55, False),
    ])
    def test_either_side_of_the_63_bit_guard(self, span_bits,
                                             expect_packed):
        # 1 024 keys need 10 position bits: 53 key bits still fit.
        rng = np.random.default_rng(span_bits)
        low = -(1 << 40)
        keys = low + rng.integers(0, 1 << (span_bits - 1), size=1_024)
        keys[0] = low
        keys[-1] = low + (1 << span_bits) - 1
        keys[5] = keys[900]
        assert (int(keys.max()) - int(keys.min())).bit_length() == span_bits
        assert_index_is_the_stable_sort(keys, expect_packed=expect_packed)

    def test_full_int64_and_uint64_spans_take_the_stable_sort(self):
        for dtype in (np.int64, np.uint64):
            info = np.iinfo(dtype)
            keys = np.array([info.max, info.min, 0, info.max, info.min],
                            dtype=dtype)
            assert_index_is_the_stable_sort(keys, expect_packed=False)

    def test_non_integer_keys_take_the_stable_sort(self):
        floats = np.array([2.5, -1.0, 2.5, 0.0, -1.0])
        assert_index_is_the_stable_sort(floats, expect_packed=False)
        flags = np.array([True, False, True, False])
        assert_index_is_the_stable_sort(flags, expect_packed=False)

    def test_probe_pairs_unchanged_by_the_packing(self):
        rng = np.random.default_rng(4)
        build = rng.integers(0, 50, size=2_000)
        probe = rng.integers(-5, 60, size=300)
        build_idx, probe_idx = JoinBuildIndex(build).probe(probe)
        order = np.argsort(build, kind="stable")
        sorted_keys = build[order]
        expected = [
            (int(order[position]), row)
            for row, key in enumerate(probe.tolist())
            for position in range(
                int(np.searchsorted(sorted_keys, key, side="left")),
                int(np.searchsorted(sorted_keys, key, side="right")))
        ]
        assert list(zip(build_idx.tolist(), probe_idx.tolist())) == expected


# ----------------------------------------------------------------------
# 4. Band-aware probe
# ----------------------------------------------------------------------
def pair_materialising_partial(t_part, l_part, query):
    """Every key match as an index pair, the predicate's columns
    gathered at all of them, evaluated, compressed, then grouped."""
    build_idx, probe_idx = JoinBuildIndex(
        l_part.column(query.hdfs_join_key)).probe(
        t_part.column(query.db_join_key))
    pairs = len(build_idx)

    def gathered(names):
        return joined_rows(l_part, t_part, build_idx, probe_idx,
                           query.hdfs_prefix, query.db_prefix, names=names)

    predicate = query.post_join_predicate
    if predicate is not None:
        reads = predicate.columns() \
            or (f"{query.hdfs_prefix}{query.hdfs_join_key}",)
        keep = np.flatnonzero(predicate.evaluate(gathered(reads)))
        build_idx, probe_idx = build_idx.take(keep), probe_idx.take(keep)
    aggregated = [spec.column for spec in query.aggregates
                  if spec.column is not None]
    partial = group_by_aggregate(
        gathered(list(query.group_by) + aggregated),
        list(query.group_by), list(query.aggregates))
    return partial, pairs


def band_side(rng, rows, keys, days, day_type=DataType.DATE):
    """``k`` drawn from ``keys``, ``day`` from ``days``, a float ``v``
    spanning many magnitudes (so summation order shows) and a small
    group column ``g``."""
    schema = Schema([Column("k", DataType.INT64),
                     Column("day", day_type),
                     Column("v", DataType.FLOAT64),
                     Column("g", DataType.INT32)])
    return Table(schema, {
        "k": rng.integers(*keys, size=rows),
        "day": rng.integers(*days, size=rows),
        "v": rng.standard_normal(rows) * 10.0 ** rng.integers(
            -8, 9, size=rows),
        "g": rng.integers(0, 5, size=rows),
    })


def band_query(predicate, group_by=("l_g",), aggregates=(
        AggregateSpec("count"),)):
    return HybridQuery(
        db_table="T", hdfs_table="L", db_join_key="k", hdfs_join_key="k",
        db_projection=("k", "day", "v", "g"),
        hdfs_projection=("k", "day", "v", "g"),
        post_join_predicate=predicate, group_by=group_by,
        aggregates=aggregates,
    )


PAPER_BAND = BetweenDayDiff("t_day", "l_day", low=0, high=1)
INT32 = np.iinfo(np.int32)
#: name -> (predicate, T keys, L keys, T days, L days, T rows, L rows)
BAND_CASES = {
    "paper-band": (PAPER_BAND, (0, 40), (0, 40), (0, 30), (0, 30),
                   600, 2_000),
    "build-minus-probe": (BetweenDayDiff("l_day", "t_day", -1, 0),
                          (0, 40), (0, 40), (0, 30), (0, 30), 600, 2_000),
    "empty-band-low-above-high": (BetweenDayDiff("t_day", "l_day", 3, 1),
                                  (0, 40), (0, 40), (0, 30), (0, 30),
                                  600, 2_000),
    "negative-bounds": (BetweenDayDiff("t_day", "l_day", -7, -2),
                        (0, 40), (0, 40), (0, 30), (0, 30), 600, 2_000),
    "sql-lower-only": (BetweenDayDiff("t_day", "l_day", 0, 2**31),
                       (0, 40), (0, 40), (0, 30), (0, 30), 600, 2_000),
    "sql-upper-only": (BetweenDayDiff("l_day", "t_day", -(2**31), 3),
                       (0, 40), (0, 40), (0, 30), (0, 30), 600, 2_000),
    "int32-extreme-days": (
        BetweenDayDiff("t_day", "l_day", -(2**31), 2**31 + 5),
        (0, 20), (0, 20), (INT32.min, INT32.max), (INT32.min, INT32.max),
        400, 1_500),
    "probe-keys-outside-build": (PAPER_BAND, (-60, 100), (0, 40),
                                 (0, 30), (0, 30), 600, 2_000),
    "empty-build": (PAPER_BAND, (0, 40), (0, 40), (0, 30), (0, 30),
                    600, 0),
    "empty-probe": (PAPER_BAND, (0, 40), (0, 40), (0, 30), (0, 30),
                    0, 2_000),
    "conjunction-with-residual": (
        compare("l_v", ">", 0.0) & BetweenDayDiff("t_day", "l_day", 0, 4)
        & ColumnPairPredicate("t_g", CompareOp.LE, "l_g"),
        (0, 40), (0, 40), (0, 30), (0, 30), 600, 2_000),
    "wide-key-span": (PAPER_BAND, (-(1 << 40), 1 << 40),
                      (-(1 << 40), 1 << 40), (0, 3), (0, 3), 600, 2_000),
}


def band_inputs(name, seed, l_day_type=DataType.DATE):
    _pred, t_keys, l_keys, t_days, l_days, t_rows, l_rows = \
        BAND_CASES[name]
    rng = np.random.default_rng(seed)
    t_part = band_side(rng, t_rows, t_keys, t_days)
    l_part = band_side(rng, l_rows, l_keys, l_days, l_day_type)
    if name == "int32-extreme-days":
        t_part.column("day")[:2] = (INT32.min, INT32.max)
        l_part.column("day")[:2] = (INT32.max, INT32.min)
    if name == "probe-keys-outside-build":
        # Shifted past the day bits, k + 2**59 wraps onto k: an index
        # that forgot the range check would match it.
        t_keys = t_part.column("k")
        t_keys[::3] += 1 << 59
        t_keys[:2] = (np.iinfo(np.int64).min, np.iinfo(np.int64).max)
    if name == "wide-key-span":
        # Few distinct keys over a 41-bit span: matches still happen.
        l_part.column("k")[:] = l_part.column("k")[:8][
            rng.integers(0, 8, size=l_rows)]
        t_part.column("k")[::2] = l_part.column("k")[
            rng.integers(0, l_rows, size=(t_rows + 1) // 2)]
    return t_part, l_part


class BranchCounter:
    """Counts band index builds and band probes while active."""

    def __enter__(self):
        self.builds = self.probes = 0
        build, probe = (JoinBuildIndex._build_banded,
                        JoinBuildIndex._probe_band)

        def counting_build(index):
            banded = build(index)
            self.builds += banded
            return banded

        def counting_probe(index, *args):
            self.probes += 1
            return probe(index, *args)

        self._patches = [
            mock.patch.object(JoinBuildIndex, "_build_banded",
                              counting_build),
            mock.patch.object(JoinBuildIndex, "_probe_band",
                              counting_probe),
        ]
        for patch in self._patches:
            patch.start()
        return self

    def __exit__(self, *exc):
        for patch in self._patches:
            patch.stop()


def assert_band_equals_pair_materialising(t_part, l_part, query):
    with BranchCounter() as counter:
        partial, pairs = join_aggregate([(t_part, l_part)], query)
    expected, expected_pairs = pair_materialising_partial(
        t_part, l_part, query)
    assert pairs == expected_pairs
    assert_same_table(partial, expected)
    return counter


class TestBandProbe:
    @pytest.mark.parametrize("seed,name", list(enumerate(BAND_CASES)),
                             ids=list(BAND_CASES))
    def test_bit_identical_to_the_pair_materialising_path(self, seed,
                                                           name):
        query = band_query(BAND_CASES[name][0])
        t_part, l_part = band_inputs(name, 4_000 + seed)
        counter = assert_band_equals_pair_materialising(
            t_part, l_part, query)
        assert counter.builds == (l_part.num_rows > 0)
        assert counter.probes == counter.builds

    def test_float_sum_and_avg_keep_the_survivor_order(self):
        query = band_query(
            BetweenDayDiff("t_day", "l_day", -3, 3), group_by=("t_g",),
            aggregates=(AggregateSpec("sum", "l_v"),
                        AggregateSpec("avg", "l_v"),
                        AggregateSpec("sum", "t_v")))
        t_part, l_part = band_inputs("paper-band", 17)
        counter = assert_band_equals_pair_materialising(
            t_part, l_part, query)
        assert counter.probes == 1

    def test_paper_query_takes_the_band_path(self):
        case = generator.edge_case("zipf-skew")
        assert isinstance(case.query.post_join_predicate, BetweenDayDiff)
        t_part, l_part = join_inputs(case)
        counter = assert_band_equals_pair_materialising(
            t_part, l_part, case.query)
        assert counter.probes == 1

    @pytest.mark.parametrize("predicate,l_day_type,change", [
        (PAPER_BAND, DataType.DATE, "wide-build-keys"),
        (PAPER_BAND, DataType.FLOAT64, None),
        (PAPER_BAND, DataType.INT64, None),
        (PAPER_BAND, DataType.DATE, "float-probe-keys"),
        (ColumnPairPredicate("t_day", CompareOp.GE, "l_day"),
         DataType.DATE, None),
        (BetweenDayDiff("t_day", "t_g", 0, 9), DataType.DATE, None),
        (UdfPredicate("g_is_one", "l_g", lambda values: values == 1),
         DataType.DATE, None),
        (BetweenDayDiff("t_day", "l_day", 0.5, 1.5), DataType.DATE, None),
        (None, DataType.DATE, None),
    ], ids=[
        "key-span-past-the-guard", "float-days", "int64-days",
        "float-probe-keys", "column-pair", "both-columns-one-side",
        "udf", "fractional-bounds", "no-predicate",
    ])
    def test_other_shapes_keep_the_pair_materialising_path(
            self, predicate, l_day_type, change):
        t_part, l_part = band_inputs("paper-band", 99, l_day_type)
        if change == "wide-build-keys":
            # 2 000 build rows need 11 position bits, 5 day bits: a
            # 48-bit key span is one bit past the guard.
            l_part.column("k")[:2] = (0, (1 << 48) - 1)
        elif change == "float-probe-keys":
            schema = Schema([
                Column(column.name, DataType.FLOAT64)
                if column.name == "k" else column
                for column in t_part.schema])
            t_part = Table(schema, {name: t_part.column(name)
                                    for name in schema.names})
        counter = assert_band_equals_pair_materialising(
            t_part, l_part, band_query(predicate))
        assert counter.builds == 0
        assert counter.probes == 0

    def test_paper_query_pair_count_is_pinned(self):
        """The simulated cost model prices the join's output before the
        band predicate: on the benchmark's ``shuffle_repartition`` data
        (seed 42) that stays the full key-only count, 2 957 280, though
        the band probe never produces those pairs — and of the 600 k
        shuffled build rows, the 60 078 a probe can reach arrive, which
        fit one group of at most ``GROUP_BUILD_ROWS``: one banded build
        and one probe."""
        from repro import (
            HybridWarehouse,
            WorkloadSpec,
            algorithm_by_name,
            build_paper_query,
            default_config,
            generate_workload,
        )

        workload = generate_workload(WorkloadSpec(
            sigma_t=0.1, sigma_l=0.4, s_t=0.2, s_l=0.1, seed=42))
        warehouse = HybridWarehouse(default_config(scale=1e-4))
        warehouse.load_db_table("T", workload.t_table,
                                distribute_on="uniqKey")
        warehouse.load_hdfs_table("L", workload.l_table, "parquet")
        query = build_paper_query(workload)
        with BranchCounter() as counter:
            run = algorithm_by_name("repartition").run(warehouse, query)
        t_keys, l_keys = (
            table.filter(predicate.evaluate(table)).column("joinKey")
            for table, predicate in (
                (workload.t_table, query.db_predicate),
                (workload.l_table, query.hdfs_predicate)))
        assert l_keys.size == run.stats.hdfs_tuples_shuffled == 600_264
        reachable = int(np.isin(l_keys, t_keys).sum())
        assert reachable == 60_078 <= GROUP_BUILD_ROWS
        assert counter.builds == counter.probes == 1
        size = int(max(t_keys.max(), l_keys.max())) + 1
        key_only_pairs = int(np.dot(np.bincount(t_keys, minlength=size),
                                    np.bincount(l_keys, minlength=size)))
        assert run.stats.join_output_tuples == key_only_pairs == 2_957_280


# ----------------------------------------------------------------------
# 5. One join per query
# ----------------------------------------------------------------------
def assert_bit_equal(actual: Table, expected: Table) -> None:
    assert_same_table(actual, expected)
    for name in expected.schema.names:
        assert actual.column(name).tobytes() \
            == expected.column(name).tobytes()
        if expected.schema.column(name).dtype is DataType.DICT_STRING:
            assert np.array_equal(actual.dictionary(name),
                                  expected.dictionary(name))


def hash_parts(table, key, workers):
    """``table`` split by the agreed hash, as a shuffle delivers it."""
    return partition_table(
        table, agreed_hash_partition(table.column(key), workers), workers)


def reference_jen_join(jen, l_parts, t_parts, query,
                       memory_budget_rows=0.0, steal_threshold=None,
                       build_rows=None):
    """``Jen.join_and_aggregate`` as the per-unit loop it replaced:
    every worker's unit (or spill fragment, or stolen fragment) joined
    on its own, materialising, merged per worker, then across
    workers.  ``build_rows[i]`` is worker *i*'s priced build size (its
    part's rows when ``None``): its spill plan and load read it."""
    stats = LocalJoinStats()
    priced = build_rows or [part.num_rows for part in l_parts]
    work_lists = [[(l_part, t_part)]
                  for l_part, t_part in zip(l_parts, t_parts)]
    jen._steal_stragglers(work_lists, query, stats, steal_threshold)
    if build_rows is not None:
        assert all(len(units) == 1 for units in work_lists)
        work_lists = [[(l_part, t_part, rows)] for [(l_part, t_part)], rows
                      in zip(work_lists, priced)]
    else:
        work_lists = [[(l_part, t_part, l_part.num_rows)
                       for l_part, t_part in units] for units in work_lists]
    stats.per_slot_loads = [
        sum(rows + t_unit.num_rows for _l_unit, t_unit, rows in units)
        for units in work_lists]
    partials = []
    for units in work_lists:
        worker_partials = []
        for l_part, t_part, rows in units:
            plan = plan_spill(rows, t_part.num_rows, memory_budget_rows)
            stats.spilled_tuples += plan.spilled_tuples()
            stats.max_fragments = max(stats.max_fragments,
                                      plan.num_fragments)
            for build_frag, probe_frag in fragment_tables(
                    l_part, t_part, query.hdfs_join_key,
                    query.db_join_key, plan.num_fragments):
                partial, pairs = reference_partial(probe_frag, build_frag,
                                                   query)
                stats.join_output_tuples += pairs
                worker_partials.append(partial)
        partials.append(merge_partials(worker_partials, query))
    result = merge_partials(partials, query)
    stats.result_rows = result.num_rows
    return result, stats


def reference_db_join(database, t_parts, l_parts, query, strategy):
    """``ParallelDatabase.execute_hybrid_join`` as the per-worker loop
    it replaced."""
    if strategy is DbJoinStrategy.REPARTITION_BOTH:
        t_sides = database._repartition(t_parts, query.db_join_key)
        l_sides = database._repartition(l_parts, query.hdfs_join_key)
    elif strategy is DbJoinStrategy.BROADCAST_HDFS_SIDE:
        t_sides = t_parts
        l_sides = [Table.concat(l_parts)] * len(t_parts)
    else:
        t_sides = [Table.concat(t_parts)] * len(t_parts)
        l_sides = l_parts
    stats = DbJoinRunStats()
    partials = []
    for t_side, l_side in zip(t_sides, l_sides):
        partial, pairs = reference_partial(t_side, l_side, query)
        stats.build_tuples += l_side.num_rows
        stats.probe_tuples += t_side.num_rows
        stats.join_output_tuples += pairs
        partials.append(partial)
    result = merge_partials(partials, query)
    stats.result_rows = result.num_rows
    return result, stats


class IndexRecorder:
    """The build size, slot count and key route of every
    :class:`JoinBuildIndex` built while active."""

    def __enter__(self):
        self.indexes = []
        original = JoinBuildIndex.__init__

        def recording(index, *args, **kwargs):
            original(index, *args, **kwargs)
            self.indexes.append(index)

        self._patch = mock.patch.object(JoinBuildIndex, "__init__",
                                        recording)
        self._patch.start()
        return self

    def __exit__(self, *exc):
        self._patch.stop()

    @property
    def sizes(self):
        return [(index.num_keys, num_slots(index)) for index in self.indexes]


def num_slots(index) -> int:
    """How many slots an index's build side concatenates."""
    return 1 if index.slot_bounds is None else len(index.slot_bounds) - 1


def assert_one_jen_join(jen, l_parts, t_parts, query, faults=None,
                        **kwargs):
    """The engine's one join (under the fault injector ``faults``)
    equals the per-unit loop, and builds one index over every build
    row."""
    with IndexRecorder() as recorder:
        result, stats = jen.join_and_aggregate(
            l_parts, t_parts, query, jen.open_cluster(faults), **kwargs)
    budget = kwargs.get("memory_budget_rows", 0.0)
    build_rows = kwargs.get("build_rows")
    if faults is not None:
        budget = faults.spill_budget_rows(max(
            build_rows or [part.num_rows for part in l_parts])) or budget
    expected, expected_stats = reference_jen_join(
        jen, l_parts, t_parts, query, memory_budget_rows=budget,
        steal_threshold=kwargs.get("steal_threshold"),
        build_rows=build_rows)
    assert_bit_equal(result, expected)
    assert dataclasses.asdict(stats) == dataclasses.asdict(expected_stats)
    # Spill and stolen fragments split the build rows; none is copied,
    # and the one index covers the rows the cut keeps.
    assert [size for size, _slots in recorder.sizes] \
        == [indexed_build_rows(l_parts, t_parts, query)]
    return stats, recorder


def indexed_build_rows(l_parts, t_parts, query):
    """The build rows one index over every unit covers: those the
    semi-join cut keeps (:func:`naive_reachable_rows`), or all when it
    declines."""
    keep = naive_reachable_rows(
        np.concatenate([part.column(query.hdfs_join_key)
                        for part in l_parts]),
        np.concatenate([part.column(query.db_join_key)
                        for part in t_parts]))
    return (sum(part.num_rows for part in l_parts) if keep is None
            else len(keep))


def key_tables(t_keys, l_keys, rng, key_type=DataType.INT64,
               t_key_type=None):
    """T and L sides with join key ``k``, a group column and a float
    column."""
    def side(keys, key_type):
        schema = Schema([Column("k", key_type), Column("g", DataType.INT32),
                         Column("v", DataType.FLOAT64)])
        return Table(schema, {
            "k": keys,
            "g": rng.integers(0, 4, size=len(keys)),
            "v": rng.standard_normal(len(keys)) * 10.0 ** rng.integers(
                -6, 7, size=len(keys)),
        })
    return side(t_keys, t_key_type or key_type), side(l_keys, key_type)


def key_query(aggregates=(AggregateSpec("count"),
                          AggregateSpec("sum", "l_v"))):
    return HybridQuery(
        db_table="T", hdfs_table="L", db_join_key="k", hdfs_join_key="k",
        db_projection=("k", "g", "v"), hdfs_projection=("k", "g", "v"),
        group_by=("t_g",), aggregates=aggregates,
    )


@pytest.fixture(scope="module")
def jen_by_workers():
    """One JEN engine per worker count (the join needs no loaded
    table)."""
    case = generator.generate_data_case(seed=5, t_rows=60, l_rows=200)
    return {workers: generator.build_cell_warehouse(
                case, workers, "parquet").jen
            for workers in (1, 4, 30)}


class TestOneJoinPerQuery:
    @pytest.mark.parametrize("seed", range(2015, 2021))
    @pytest.mark.parametrize("workers", [1, 4, 30])
    def test_seeded_grid(self, jen_by_workers, seed, workers):
        case = generator.generate_data_case(seed, t_rows=900, l_rows=3_000)
        t_part, l_part = join_inputs(case)
        query = case.query
        stats, recorder = assert_one_jen_join(
            jen_by_workers[workers],
            hash_parts(l_part, query.hdfs_join_key, workers),
            hash_parts(t_part, query.db_join_key, workers), query)
        assert len(recorder.indexes) == 1
        assert sum(stats.per_slot_loads) \
            == l_part.num_rows + t_part.num_rows
        # Seeds 2015 and 2017 reach at most half their build rows, so
        # the cut fires; the other seeds' probes reach more of them.
        assert (recorder.sizes[0][0] < l_part.num_rows) \
            == (seed in (2015, 2017))

    @pytest.mark.parametrize("name", [
        "empty-t-prime", "all-duplicate-keys", "zipf-skew",
        "empty-result", "wide-dtypes",
    ])
    def test_edge_cases(self, jen_by_workers, name):
        case = generator.edge_case(name)
        t_part, l_part = join_inputs(case)
        query = case.query
        _stats, recorder = assert_one_jen_join(
            jen_by_workers[4],
            hash_parts(l_part, query.hdfs_join_key, 4),
            hash_parts(t_part, query.db_join_key, 4), query)
        # An empty probe side, and probes reaching most build rows,
        # keep every row; the other two cases' probes reach few.
        assert (recorder.sizes[0][0] < l_part.num_rows) \
            == (name in ("empty-result", "wide-dtypes"))

    def test_empty_units_and_all_units_empty(self, jen_by_workers):
        case = generator.generate_data_case(2031, t_rows=900, l_rows=3_000)
        t_part, l_part = join_inputs(case)
        query = case.query
        l_parts = hash_parts(l_part, query.hdfs_join_key, 4)
        t_parts = hash_parts(t_part, query.db_join_key, 4)
        jen = jen_by_workers[4]
        # Workers 1 and 3 received nothing; worker 2 no probe rows.
        l_holes = [l_parts[0], l_parts[1].slice(0, 0), l_parts[2],
                   l_parts[3].slice(0, 0)]
        t_holes = [t_parts[0], t_parts[1], t_parts[2].slice(0, 0),
                   t_parts[3].slice(0, 0)]
        assert_one_jen_join(jen, l_holes, t_holes, query)
        stats, _recorder = assert_one_jen_join(
            jen, [part.slice(0, 0) for part in l_parts],
            [part.slice(0, 0) for part in t_parts], query)
        assert stats.result_rows == stats.join_output_tuples == 0

    def test_jen_broadcast_shares_one_probe_side(self, jen_by_workers):
        """The broadcast join hands every worker the same T′ table."""
        case = generator.generate_data_case(2032, t_rows=900, l_rows=3_000)
        t_part, l_part = join_inputs(case)
        query = case.query
        l_parts = hash_parts(l_part, query.hdfs_join_key, 4)
        stats, _recorder = assert_one_jen_join(
            jen_by_workers[4], l_parts, [t_part] * 4, query)
        assert sum(stats.per_slot_loads) \
            == l_part.num_rows + 4 * t_part.num_rows

    @pytest.mark.parametrize("strategy", list(DbJoinStrategy))
    def test_each_db_join_strategy(self, strategy):
        case = generator.generate_data_case(2033, t_rows=900, l_rows=3_000)
        warehouse = generator.build_cell_warehouse(case, 4, "parquet")
        database = warehouse.database
        t_part, l_part = join_inputs(case)
        query = case.query
        workers = database.num_workers
        # T′ as the EDW holds it; ingested L grouped with no hash
        # alignment (one worker got nothing).
        t_parts = database._repartition([t_part], query.db_join_key)
        l_parts = split_table(l_part, workers - 1) + [l_part.slice(0, 0)]
        with IndexRecorder() as recorder:
            result, stats = database.execute_hybrid_join(
                t_parts, l_parts, query, DbJoinChoice(strategy, 0.0))
        expected, expected_stats = reference_db_join(
            database, t_parts, l_parts, query, strategy)
        assert_bit_equal(result, expected)
        assert dataclasses.asdict(stats) \
            == dataclasses.asdict(expected_stats)
        assert len(recorder.indexes) == 1
        if strategy is DbJoinStrategy.BROADCAST_HDFS_SIDE:
            # One table on every worker is indexed once: |L| rows.
            assert recorder.sizes == [(l_part.num_rows, 1)]
        else:
            assert recorder.sizes == [(l_part.num_rows, workers)]

    def test_spill_from_a_memory_budget(self, jen_by_workers):
        case = generator.generate_data_case(2034, t_rows=900, l_rows=3_000)
        t_part, l_part = join_inputs(case)
        query = case.query
        l_parts = hash_parts(l_part, query.hdfs_join_key, 4)
        t_parts = hash_parts(t_part, query.db_join_key, 4)
        budget = 0.3 * max(part.num_rows for part in l_parts)
        stats, recorder = assert_one_jen_join(
            jen_by_workers[4], l_parts, t_parts, query,
            memory_budget_rows=budget)
        assert stats.spilled_tuples > 0 and stats.max_fragments >= 4
        # Every fragment is a slot of the one index.
        assert recorder.sizes[0][1] == sum(
            plan_spill(l_side.num_rows, t_side.num_rows, budget)
            .num_fragments for l_side, t_side in zip(l_parts, t_parts))

    def test_spill_from_a_fault_plan(self, jen_by_workers):
        case = generator.generate_data_case(2035, t_rows=900, l_rows=3_000)
        t_part, l_part = join_inputs(case)
        query = case.query
        stats, _recorder = assert_one_jen_join(
            jen_by_workers[4], hash_parts(l_part, query.hdfs_join_key, 4),
            hash_parts(t_part, query.db_join_key, 4), query,
            faults=FaultInjector(FaultPlan.from_spec("spill:x0.4")))
        assert stats.spilled_tuples > 0

    def test_stealing_with_skew_on(self, jen_by_workers):
        case = generator.skewed_case(1.8)
        t_part, l_part = join_inputs(case)
        query = case.query
        stats, _recorder = assert_one_jen_join(
            jen_by_workers[30],
            hash_parts(l_part, query.hdfs_join_key, 30),
            hash_parts(t_part, query.db_join_key, 30), query,
            steal_threshold=STEAL_THRESHOLD)
        assert stats.stolen_tuples > 0

    @pytest.mark.parametrize("aggregates,ordered", [
        ((AggregateSpec("count"), AggregateSpec("sum", "l_v"),
          AggregateSpec("sum", "t_v"), AggregateSpec("min", "l_v")), True),
        ((AggregateSpec("count"), AggregateSpec("max", "l_day")), False),
    ], ids=["float-sum", "count-and-int-max"])
    def test_band_pair_order(self, jen_by_workers, aggregates, ordered):
        """Float sums are summed in pair order and truncated per unit,
        so the band probe restores build order for them — and only
        for them."""
        query = band_query(BetweenDayDiff("t_day", "l_day", -3, 3),
                           group_by=("t_g",), aggregates=aggregates)
        t_part, l_part = band_inputs("paper-band", 23)
        orders = []
        original = JoinBuildIndex._probe_band

        def recording(index, *args):
            orders.append(args[-1])
            return original(index, *args)

        with mock.patch.object(JoinBuildIndex, "_probe_band", recording):
            assert_one_jen_join(
                jen_by_workers[4], hash_parts(l_part, "k", 4),
                hash_parts(t_part, "k", 4), query)
        assert orders == [ordered]

    def test_float_sum_without_a_band(self, jen_by_workers):
        t_part, l_part = band_inputs("paper-band", 24)
        assert_one_jen_join(
            jen_by_workers[4], hash_parts(l_part, "k", 4),
            hash_parts(t_part, "k", 4),
            band_query(None, group_by=("t_g",), aggregates=(
                AggregateSpec("sum", "l_v"), AggregateSpec("sum", "t_v"))))

    def test_avg_is_refused_on_every_layout(self, jen_by_workers):
        """AVG cannot merge, so JEN's and the EDW's joins refuse it
        however many workers, units or rows there are, as their merge of
        per-worker partials did; ``join_aggregate`` refuses it for more
        than one unit before it looks at a row.  One unit's AVG is that
        unit's partial."""
        query = key_query(aggregates=(AggregateSpec("avg", "l_v"),))
        rng = np.random.default_rng(3)
        t_part, l_part = key_tables(rng.integers(0, 40, size=300),
                                    rng.integers(0, 40, size=900), rng)
        no_l, no_t = l_part.slice(0, 0), t_part.slice(0, 0)
        jen_layouts = [
            (4, hash_parts(l_part, "k", 4), hash_parts(t_part, "k", 4), 0),
            # Only one unit has rows; then none has.
            (4, [l_part] + [no_l] * 3, [t_part] + [no_t] * 3, 0),
            (4, [no_l] * 4, [no_t] * 4, 0),
            (1, [l_part], [t_part], 0),
            (1, [l_part], [t_part], 100),   # spills into fragments
            (1, [no_l], [no_t], 0),
        ]
        for workers, l_parts, t_parts, budget in jen_layouts:
            with pytest.raises(ExpressionError, match="avg cannot be merged"):
                jen = jen_by_workers[workers]
                jen.join_and_aggregate(l_parts, t_parts, query,
                                       jen.open_cluster(),
                                       memory_budget_rows=budget)
        case = generator.generate_data_case(seed=5, t_rows=60, l_rows=200)
        database = generator.build_cell_warehouse(case, 1, "parquet").database
        for strategy in DbJoinStrategy:
            with pytest.raises(ExpressionError, match="avg cannot be merged"):
                database.execute_hybrid_join(
                    [t_part], [l_part], query, DbJoinChoice(strategy, 0.0))
        for units in ([(t_part, l_part), (no_t, no_l)], [(no_t, no_l)] * 2):
            with pytest.raises(ExpressionError, match="avg cannot be merged"):
                join_aggregate(units, query)
        result, _pairs = join_aggregate([(t_part, l_part)], query)
        expected, _pairs = reference_partial(t_part, l_part, query)
        assert_bit_equal(result, expected)

    @pytest.mark.parametrize("keys", [
        "int32-full-range", "int64-full-range", "span-inside-the-guard",
        "span-past-the-guard", "float-probe-keys"])
    def test_key_domains(self, jen_by_workers, keys):
        """Tables hold int32, int64 and float64 keys; uint64 and int8
        keys reach only the kernel (``TestSlottedIndex``)."""
        rng = np.random.default_rng(len(keys))
        key_type, t_key_type = DataType.INT64, None
        if keys == "int32-full-range":
            key_type = DataType.INT32
            domain = rng.integers(INT32.min, INT32.max, size=80)
            domain[:2] = (INT32.min, INT32.max)
        elif keys == "int64-full-range":
            info = np.iinfo(np.int64)
            domain = rng.integers(info.min, info.max, size=80)
            domain[:2] = (info.min, info.max)
        else:
            # Four slots: 4 · 2**61 words fit 63 bits exactly; one more
            # key value and the slotted index ranks the keys instead.
            span = 2**61 + (keys == "span-past-the-guard")
            domain = rng.integers(0, span, size=80, dtype=np.int64)
            domain[:2] = (0, span - 1)
            if keys == "float-probe-keys":
                domain = rng.integers(-40, 40, size=80)
                t_key_type = DataType.FLOAT64
        t_part, l_part = key_tables(
            domain[rng.integers(0, len(domain), size=700)],
            domain[rng.integers(0, len(domain), size=1_500)], rng,
            key_type, t_key_type)
        stats, recorder = assert_one_jen_join(
            jen_by_workers[4], hash_parts(l_part, "k", 4),
            hash_parts(t_part, "k", 4), key_query())
        assert stats.join_output_tuples > 0
        (index,) = recorder.indexes
        assert num_slots(index) == 4
        assert (index._distinct is not None) \
            == (keys in ("span-past-the-guard", "int64-full-range"))


class TestSlottedIndex:
    """A slotted probe is the per-slot probe, row by row."""

    @staticmethod
    def assert_per_slot(build, bounds, probe, slots):
        index = JoinBuildIndex(build, slot_bounds=bounds)
        build_idx, probe_idx = index.probe(probe, slots=slots)
        expected = []
        for row, (key, slot) in enumerate(zip(probe, slots)):
            start = bounds[slot]
            own = JoinBuildIndex(build[start:bounds[slot + 1]])
            matched, _rows = own.probe(np.asarray(probe[row:row + 1]))
            expected += [(int(start + position), row)
                         for position in matched.tolist()]
        assert list(zip(build_idx.tolist(), probe_idx.tolist())) \
            == expected
        return index

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32,
                                       np.int64, np.uint64, np.float64])
    def test_dtypes(self, dtype):
        rng = np.random.default_rng(7)
        if dtype == np.float64:
            domain = rng.standard_normal(30)
        elif dtype == np.uint64:
            domain = np.uint64(2**63) + rng.integers(
                0, 2**40, size=30).astype(np.uint64)
        else:
            info = np.iinfo(dtype)
            domain = rng.integers(info.min, info.max, size=30,
                                  endpoint=True).astype(dtype)
            domain[:2] = (info.min, info.max)
        build = domain[rng.integers(0, 30, size=400)]
        probe = domain[rng.integers(0, 30, size=120)]
        bounds = np.array([0, 90, 90, 250, 400])
        slots = rng.integers(0, 4, size=120)
        index = self.assert_per_slot(build, bounds, probe, slots)
        # Floats, and int64's full span times four slots, are ranked.
        assert (index._distinct is not None) \
            == (dtype in (np.int64, np.float64))

    def test_probe_dtypes_other_than_the_build(self):
        rng = np.random.default_rng(8)
        build = rng.integers(-20, 20, size=300)
        bounds = np.array([0, 100, 300])
        slots = rng.integers(0, 2, size=90)
        probe = rng.integers(-25, 25, size=90)
        for probe_keys in (probe.astype(np.float64) + 0.5 * (probe % 2),
                           probe.astype(np.int8),
                           np.abs(probe).astype(np.uint64)):
            self.assert_per_slot(build, bounds, probe_keys, slots)

    def test_slot_fields_on_either_side_of_the_guard(self):
        rng = np.random.default_rng(9)
        for span, ranked in ((2**61, False), (2**61 + 1, True)):
            build = rng.integers(0, span, size=64, dtype=np.int64)
            build[:2] = (0, span - 1)
            probe = build[rng.integers(0, 64, size=50)]
            index = self.assert_per_slot(
                build, np.array([0, 10, 30, 40, 64]), probe,
                rng.integers(0, 4, size=50))
            assert (index._distinct is not None) == ranked

    def test_bounds_must_cover_the_build(self):
        with pytest.raises(ValueError, match="slot bounds"):
            JoinBuildIndex(np.arange(5), slot_bounds=np.array([0, 3, 4]))
        index = JoinBuildIndex(np.arange(5), slot_bounds=[0, 5])
        assert index.slot_bounds is None
        with pytest.raises(ValueError, match="slotted"):
            index.probe(np.arange(3), slots=np.zeros(3, dtype=np.int64))
