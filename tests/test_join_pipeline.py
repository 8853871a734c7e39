"""The batch carried past the scan, against the obvious reference loops.

Four mechanisms replaced row-table plumbing with index arithmetic;
each is compared here with the form it replaced, written the obvious
way inside the test:

1. ``join_partial_aggregate`` (probe -> index pairs -> narrow gathers)
   against ``local_partial_aggregate(local_join(...))`` — which
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

from repro import testkit
from repro.core.joins.repartition import _route_db_rows
from repro.edw.partitioner import agreed_hash_partition
from repro.errors import InvariantViolation, SchemaError, TableError
from repro.faults import FaultInjector, FaultPlan
from repro.jen.exchange import ShuffleResult, shuffle
from repro.jen.worker import JenWorker
from repro.kernels import joinindex
from repro.kernels.joinindex import JoinBuildIndex
from repro.query.plan import (
    apply_derivations,
    join_build_columns,
    join_partial_aggregate,
    local_join,
    local_partial_aggregate,
)
from repro.query.query import HybridQuery
from repro.relational.aggregates import AggregateSpec, group_by_aggregate
from repro.relational.expressions import (
    BetweenDayDiff,
    ColumnPairPredicate,
    CompareOp,
    TruePredicate,
    compare,
)
from repro.relational.operators import joined_rows
from repro.relational.schema import Column, DataType, Schema
from repro.relational.table import Table
from repro.skew import HotKeySet
from repro.testkit import generator, oracle
from tests.kernel_reference import naive_partition_table
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
    l_part = apply_derivations(l_rows, query).project(
        list(query.hdfs_wire_columns())
    )
    return t_part, l_part


def reference_partial(t_part, l_part, query):
    """Materialise every joined column, then filter, then group."""
    joined = local_join(t_part, l_part, query)
    return local_partial_aggregate(joined, query), joined.num_rows


def assert_fused_equals_reference(t_part, l_part, query, **kwargs):
    partial, pairs = join_partial_aggregate(t_part, l_part, query, **kwargs)
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

    def test_supplied_and_stale_build_index(self, base):
        case, t_part, l_part = base
        key = case.query.hdfs_join_key
        fresh = JoinBuildIndex(l_part.column(key))
        stale = JoinBuildIndex(l_part.column(key)[::-1].copy())
        assert not stale.matches(l_part.column(key))
        for index in (fresh, stale):
            assert_fused_equals_reference(
                t_part, l_part, case.query, build_index=index
            )

    def test_supplied_index_skips_the_build(self, base):
        case, t_part, l_part = base
        index = JoinBuildIndex(
            *join_build_columns(t_part, l_part, case.query))
        with mock.patch.object(
                joinindex.JoinBuildIndex, "__init__",
                side_effect=AssertionError("rebuilt")):
            join_partial_aggregate(t_part, l_part, case.query,
                                   build_index=index)

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
                join_partial_aggregate(t_part, l_part, query)

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
            join_partial_aggregate(t_part, l_part, query)


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
    result = ShuffleResult(per_destination=[], tuples_shuffled=0,
                           tuples_remote=0, hot_tuples=hot_tuples)
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
                      faults=None) -> ShuffleResult:
    """What ``Jen.shuffle_by_key`` runs once crashes are dealt with."""
    per_destination, routed, hot_tuples = JenWorker.partition_for_exchange(
        wire_tables, key, num_workers, hot_keys)
    result = shuffle(per_destination, routed, faults=faults)
    result.hot_tuples = hot_tuples
    return result


def assert_same_shuffle(actual: ShuffleResult, expected: ShuffleResult):
    assert len(actual.per_destination) == len(expected.per_destination)
    for got, want in zip(actual.per_destination, expected.per_destination):
        assert_same_table(got, want)
    for field in dataclasses.fields(ShuffleResult):
        if field.name != "per_destination":
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


class TestOnePassExchange:
    @pytest.mark.parametrize("shape", sorted(SENDER_SHAPES))
    @pytest.mark.parametrize("hybrid", [False, True],
                             ids=["plain", "hybrid"])
    @pytest.mark.parametrize("checked", [False, True],
                             ids=["unchecked", "invariants-on"])
    def test_rows_and_accounting_match_the_matrix_walk(
            self, shape, hybrid, checked):
        tables = sender_tables(SENDER_SHAPES[shape], seed=3,
                               hot_key=42, hot_share=0.4)
        hot = HOT if hybrid else None
        expected = reference_exchange(tables, "k", 6, hot)
        if checked:
            with testkit.checking():
                actual = one_pass_exchange(tables, "k", 6, hot)
        else:
            actual = one_pass_exchange(tables, "k", 6, hot)
        assert_same_shuffle(actual, expected)
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
        with testkit.checking():
            actual = one_pass_exchange(tables, "k", 6, hot,
                                       faults=injector)
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
        per_destination, routed, _hot = JenWorker.partition_for_exchange(
            tables, "k", 3)
        with testkit.checking():
            result = shuffle(per_destination, routed,
                             faults=AlwaysDuplicate())
            assert result.duplicates_suppressed == 6
            assert result.tuples_shuffled == 150
            short = [per_destination[0].slice(1, per_destination[0].num_rows)
                     ] + per_destination[1:]
            with pytest.raises(InvariantViolation, match="conservation"):
                shuffle(short, routed)


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
        with testkit.checking():
            actual, hot, copies = _route_db_rows(tables, "k", 6)
        assert (hot, copies) == (0, 0)
        for got, want in zip(actual, expected):
            assert_same_table(got, want)

    @pytest.mark.parametrize("shape", sorted(SENDER_SHAPES))
    def test_hot_key_duplication_delivers_the_same_multisets(self, shape):
        tables = sender_tables(SENDER_SHAPES[shape], seed=9,
                               hot_key=42, hot_share=0.35)
        expected, want_hot, want_copies = reference_route_db_rows(
            tables, "k", 6, HOT)
        with testkit.checking():
            actual, hot, copies = _route_db_rows(tables, "k", 6,
                                                 hot_keys=HOT)
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
        reads = predicate.columns() or (query.prefixed_hdfs_key(),)
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
        partial, pairs = join_partial_aggregate(t_part, l_part, query)
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
        (PAPER_BAND | compare("l_g", "==", 1), DataType.DATE, None),
        (BetweenDayDiff("t_day", "l_day", 0.5, 1.5), DataType.DATE, None),
        (None, DataType.DATE, None),
    ], ids=[
        "key-span-past-the-guard", "float-days", "int64-days",
        "float-probe-keys", "column-pair", "both-columns-one-side",
        "disjunction", "fractional-bounds", "no-predicate",
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
        the band probe never produces those pairs."""
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
        assert counter.probes == 30
        t_keys, l_keys = (
            table.filter(predicate.evaluate(table)).column("joinKey")
            for table, predicate in (
                (workload.t_table, query.db_predicate),
                (workload.l_table, query.hdfs_predicate)))
        size = int(max(t_keys.max(), l_keys.max())) + 1
        key_only_pairs = int(np.dot(np.bincount(t_keys, minlength=size),
                                    np.bincount(l_keys, minlength=size)))
        assert run.stats.join_output_tuples == key_only_pairs == 2_957_280
