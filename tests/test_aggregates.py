"""Unit and property tests for repro.relational.aggregates."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExpressionError, SchemaError, TableError
from repro.relational import aggregates as aggregates_module
from repro.relational.aggregates import (
    AggregateSpec,
    group_by_aggregate,
    merge_partial_aggregates,
)
from repro.relational.schema import Column, DataType, Schema
from repro.relational.table import Table
from tests.conftest import split_table


def kv_table(keys, values):
    schema = Schema([Column("k", DataType.INT64),
                     Column("v", DataType.INT64)])
    return Table(schema, {
        "k": np.array(keys, dtype=np.int64),
        "v": np.array(values, dtype=np.int64),
    })


class TestAggregateSpec:
    def test_unknown_function(self):
        with pytest.raises(ExpressionError, match="unsupported"):
            AggregateSpec("median", "v")

    def test_non_count_requires_column(self):
        with pytest.raises(ExpressionError, match="requires a column"):
            AggregateSpec("sum")

    def test_output_names(self):
        assert AggregateSpec("count").output_name() == "count"
        assert AggregateSpec("sum", "v").output_name() == "sum_v"
        assert AggregateSpec("min", "v", alias="lo").output_name() == "lo"


class TestGroupBy:
    def test_count_sum_min_max(self):
        table = kv_table([1, 2, 2, 3, 2], [10, 5, 7, 1, 3])
        out = group_by_aggregate(table, ["k"], [
            AggregateSpec("count"),
            AggregateSpec("sum", "v"),
            AggregateSpec("min", "v"),
            AggregateSpec("max", "v"),
        ])
        assert out.to_rows() == [
            (1, 1, 10, 10, 10),
            (2, 3, 15, 3, 7),
            (3, 1, 1, 1, 1),
        ]

    def test_avg(self):
        table = kv_table([1, 1, 2], [4, 6, 7])
        out = group_by_aggregate(table, ["k"], [AggregateSpec("avg", "v")])
        assert out.column("avg_v").tolist() == [5.0, 7.0]

    def test_empty_input(self):
        table = kv_table([], [])
        out = group_by_aggregate(table, ["k"], [
            AggregateSpec("count"), AggregateSpec("min", "v"),
        ])
        assert out.num_rows == 0
        assert out.schema.names == ("k", "count", "min_v")

    def test_multi_column_grouping(self):
        schema = Schema([Column("a", DataType.INT32),
                         Column("b", DataType.INT32)])
        table = Table(schema, {
            "a": np.array([1, 1, 2, 1]),
            "b": np.array([1, 2, 1, 1]),
        })
        out = group_by_aggregate(table, ["a", "b"], [AggregateSpec("count")])
        assert out.num_rows == 3
        assert out.column("count").sum() == 4

    def test_requires_group_columns(self):
        with pytest.raises(TableError):
            group_by_aggregate(kv_table([1], [1]), [], [])

    def test_unknown_aggregate_column(self):
        with pytest.raises(Exception):
            group_by_aggregate(
                kv_table([1], [1]), ["k"], [AggregateSpec("sum", "nope")]
            )

    def test_dict_string_group_column(self):
        schema = Schema([Column("s", DataType.DICT_STRING)])
        table = Table(
            schema,
            {"s": np.array([0, 1, 0], dtype=np.int32)},
            {"s": np.array(["x", "y"], dtype=object)},
        )
        out = group_by_aggregate(table, ["s"], [AggregateSpec("count")])
        assert out.to_rows() == [("x", 2), ("y", 1)]


class TestExactIntegerSum:
    """Integer SUM accumulates in int64: float64 rounds from 2**53."""

    BIG = 2 ** 53

    def test_sum_is_exact_beyond_2_to_53(self):
        keys = [1, 1, 2, 2, 2, 3]
        values = [self.BIG, 1, self.BIG + 1, self.BIG + 3, -5, -self.BIG - 1]
        result = group_by_aggregate(
            kv_table(keys, values), ["k"], [AggregateSpec("sum", "v")]
        )
        expected = {}
        for key, value in zip(keys, values):
            expected[key] = expected.get(key, 0) + value
        assert expected[1] == 9007199254740993  # odd: no float64 holds it
        assert result.to_rows() == sorted(expected.items())

    def test_int32_column_sums_past_int32(self):
        schema = Schema([Column("k", DataType.INT64),
                         Column("v", DataType.INT32)])
        table = Table(schema, {
            "k": np.zeros(4, dtype=np.int64),
            "v": np.full(4, 2 ** 31 - 1, dtype=np.int32),
        })
        result = group_by_aggregate(table, ["k"], [AggregateSpec("sum", "v")])
        assert result.to_rows() == [(0, 4 * (2 ** 31 - 1))]

    def test_merged_partial_sums_stay_exact(self):
        aggregates = [AggregateSpec("count"), AggregateSpec("sum", "v")]
        parts = [kv_table([7, 8], [self.BIG, 1]),
                 kv_table([7, 7], [1, 2]),
                 kv_table([8], [self.BIG])]
        merged = merge_partial_aggregates(
            [group_by_aggregate(part, ["k"], aggregates) for part in parts],
            ["k"], aggregates,
        )
        assert merged.to_rows() == [(7, 3, self.BIG + 3),
                                    (8, 2, self.BIG + 1)]

    @given(st.lists(
        st.tuples(st.integers(0, 3),
                  st.integers(-(2 ** 60), 2 ** 60)),
        min_size=1, max_size=7,
    ))
    @settings(max_examples=50, deadline=None)
    def test_sum_matches_python_ints(self, rows):
        table = kv_table([r[0] for r in rows], [r[1] for r in rows])
        result = group_by_aggregate(table, ["k"], [AggregateSpec("sum", "v")])
        expected = {}
        for key, value in rows:
            expected[key] = expected.get(key, 0) + value
        assert result.to_rows() == sorted(expected.items())


class TestMergePartials:
    @pytest.mark.parametrize("group_columns", [["k"], ["k", "g"], ["s"],
                                               ["s", "k"]])
    def test_merging_one_partial_is_the_identity(self, group_columns):
        rng = np.random.default_rng(5)
        schema = Schema([Column("k", DataType.INT64),
                         Column("g", DataType.INT32),
                         Column("s", DataType.DICT_STRING),
                         Column("v", DataType.INT64)])
        table = Table(schema, {
            "k": rng.integers(0, 6, size=200),
            "g": rng.integers(0, 3, size=200).astype(np.int32),
            "s": rng.integers(0, 4, size=200).astype(np.int32),
            "v": rng.integers(-50, 50, size=200),
        }, {"s": np.array(["d", "a", "c", "b"], dtype=object)})
        aggregates = [AggregateSpec("count"), AggregateSpec("sum", "v"),
                      AggregateSpec("min", "v"),
                      AggregateSpec("max", "v", alias="top")]
        partial = group_by_aggregate(table, group_columns, aggregates)
        empty = group_by_aggregate(table.slice(0, 0), group_columns,
                                   aggregates)
        # What the merge does to two or more partials, applied to one.
        regrouped = group_by_aggregate(partial, group_columns, [
            AggregateSpec("sum", "count", alias="count"),
            AggregateSpec("sum", "sum_v", alias="sum_v"),
            AggregateSpec("min", "min_v", alias="min_v"),
            AggregateSpec("max", "top", alias="top"),
        ])
        for partials in ([partial], [empty, partial, empty]):
            merged = merge_partial_aggregates(partials, group_columns,
                                              aggregates)
            assert merged is partial
            assert list(merged.schema) == list(regrouped.schema)
            for name in regrouped.schema.names:
                assert merged.column(name).dtype \
                    == regrouped.column(name).dtype
            assert merged.to_rows() == regrouped.to_rows()
        only = merge_partial_aggregates([empty], group_columns, aggregates)
        assert only is empty

    def test_merge_equals_global(self):
        table = kv_table([1, 2, 2, 3, 2, 1], [1, 2, 3, 4, 5, 6])
        aggregates = [
            AggregateSpec("count"),
            AggregateSpec("sum", "v"),
            AggregateSpec("min", "v"),
            AggregateSpec("max", "v"),
        ]
        whole = group_by_aggregate(table, ["k"], aggregates)
        partials = [
            group_by_aggregate(part, ["k"], aggregates)
            for part in split_table(table, 3)
        ]
        merged = merge_partial_aggregates(partials, ["k"], aggregates)
        assert merged.to_rows() == whole.to_rows()

    def test_avg_rejected(self):
        table = kv_table([1], [1])
        partial = group_by_aggregate(table, ["k"], [AggregateSpec("count")])
        with pytest.raises(ExpressionError, match="avg"):
            merge_partial_aggregates(
                [partial], ["k"], [AggregateSpec("avg", "v")]
            )

    @given(st.lists(
        st.tuples(st.integers(0, 5), st.integers(-100, 100)),
        min_size=1, max_size=100,
    ), st.integers(2, 6))
    @settings(max_examples=50, deadline=None)
    def test_merge_invariant_under_any_split(self, rows, parts):
        keys = [r[0] for r in rows]
        values = [r[1] for r in rows]
        table = kv_table(keys, values)
        aggregates = [
            AggregateSpec("count"), AggregateSpec("sum", "v"),
            AggregateSpec("min", "v"), AggregateSpec("max", "v"),
        ]
        whole = group_by_aggregate(table, ["k"], aggregates)
        partials = [
            group_by_aggregate(part, ["k"], aggregates)
            for part in split_table(table, parts)
        ]
        merged = merge_partial_aggregates(partials, ["k"], aggregates)
        assert merged.to_rows() == whole.to_rows()


# ----------------------------------------------------------------------
# Counting group-by == the np.unique grouping it replaces
# ----------------------------------------------------------------------
ALL_FIVE = [
    AggregateSpec("count"), AggregateSpec("sum", "v"),
    AggregateSpec("min", "v"), AggregateSpec("max", "v"),
    AggregateSpec("avg", "v"),
]


def reference_group_by(table, group_columns, aggregates):
    """Grouping as it was before the counting branch — one ``np.unique``
    sort, group keys gathered at each group's first row — with the
    aggregates computed per group in Python ints.  Returns
    ``{column: array}`` in output order."""
    arrays = [table.column(name) for name in group_columns]
    keys = arrays[0] if len(arrays) == 1 else np.rec.fromarrays(arrays)
    _, first_rows, group_ids = np.unique(
        keys, return_index=True, return_inverse=True)
    out = {name: array[first_rows]
           for name, array in zip(group_columns, arrays)}
    members = [[] for _ in first_rows]
    for row, group in enumerate(group_ids.ravel().tolist()):
        members[group].append(row)
    for spec in aggregates:
        if spec.function == "count":
            values = [len(rows) for rows in members]
        else:
            column = table.column(spec.column).tolist()
            picked = [[column[row] for row in rows] for rows in members]
            values = {
                "sum": lambda: [sum(group) for group in picked],
                "min": lambda: [min(group) for group in picked],
                "max": lambda: [max(group) for group in picked],
                "avg": lambda: [sum(group) / len(group) for group in picked],
            }[spec.function]()
        out[spec.output_name()] = np.asarray(
            values, dtype=spec.output_dtype().numpy_dtype())
    return out


def assert_groups_like_the_reference(table, group_columns, aggregates,
                                     counted):
    """``counted``: whether the counting branch must take it (0 sorts)
    or must leave it to ``np.unique`` (exactly one)."""
    expected = reference_group_by(table, group_columns, aggregates)
    with mock.patch.object(aggregates_module.np, "unique",
                           wraps=np.unique) as unique:
        result = group_by_aggregate(table, group_columns, aggregates)
    assert unique.call_count == (0 if counted else 1)
    assert list(result.schema.names) == list(expected)
    for name, values in expected.items():
        assert result.column(name).dtype == values.dtype, name
        assert np.array_equal(result.column(name), values), name
    for name in group_columns:
        assert result.schema.column(name) == table.schema.column(name)
        if table.schema.column(name).dtype is DataType.DICT_STRING:
            assert result.dictionary(name) is table.dictionary(name)
    return result


def keyed_table(keys, dtype=DataType.INT64, seed=0, dictionary=None):
    keys = np.asarray(keys, dtype=dtype.numpy_dtype())
    rng = np.random.default_rng(seed)
    schema = Schema([Column("k", dtype), Column("v", DataType.INT64)])
    return Table(
        schema,
        {"k": keys, "v": rng.integers(-1000, 1000, size=keys.size)},
        {} if dictionary is None else {"k": dictionary},
    )


class TestCountingGroupBy:
    def test_negative_keys(self):
        rng = np.random.default_rng(1)
        for dtype in (DataType.INT32, DataType.INT64):
            table = keyed_table(rng.integers(-40, -3, size=500), dtype)
            assert_groups_like_the_reference(table, ["k"], ALL_FIVE, True)
        # A dense run at either end of the type: min itself is the base,
        # and max - min must not be taken in the column's own width.
        for dtype in (DataType.INT32, DataType.INT64):
            info = np.iinfo(dtype.numpy_dtype())
            low = keyed_table(info.min + rng.integers(0, 9, size=60), dtype)
            high = keyed_table(info.max - rng.integers(0, 9, size=60), dtype)
            assert_groups_like_the_reference(low, ["k"], ALL_FIVE, True)
            assert_groups_like_the_reference(high, ["k"], ALL_FIVE, True)

    def test_date_column(self):
        rng = np.random.default_rng(2)
        table = keyed_table(16_000 + rng.integers(0, 90, size=400),
                            DataType.DATE)
        result = assert_groups_like_the_reference(
            table, ["k"], ALL_FIVE, True)
        assert result.schema.column("k").dtype is DataType.DATE

    def test_dictionary_codes_with_gaps(self):
        # Codes 1, 4 and 6 never occur: the groups are the occupied
        # codes only, in code order, under the table's own dictionary.
        dictionary = np.asarray(list("hgfedcba"), dtype=object)
        rng = np.random.default_rng(3)
        codes = rng.choice([0, 2, 3, 5, 7], size=300)
        table = keyed_table(codes, DataType.DICT_STRING,
                            dictionary=dictionary)
        result = assert_groups_like_the_reference(
            table, ["k"], ALL_FIVE, True)
        assert result.column("k").tolist() == [0, 2, 3, 5, 7]
        assert [row[0] for row in result.to_rows()] == list("hfeca")

    def test_all_rows_one_key_and_one_row(self):
        assert_groups_like_the_reference(
            keyed_table([7] * 50), ["k"], ALL_FIVE, True)
        assert_groups_like_the_reference(
            keyed_table([-3]), ["k"], ALL_FIVE, True)
        assert_groups_like_the_reference(
            keyed_table([np.iinfo(np.int64).min]), ["k"], ALL_FIVE, True)

    def test_exact_sum_past_2_to_53(self):
        big = 2 ** 53
        schema = Schema([Column("k", DataType.INT32),
                         Column("v", DataType.INT64)])
        table = Table(schema, {
            "k": np.array([4, 4, 9, 9, 9, 5], dtype=np.int32),
            "v": np.array([big, 1, big + 1, big + 3, -5, -big - 1]),
        })
        result = assert_groups_like_the_reference(
            table, ["k"], [AggregateSpec("sum", "v")], True)
        assert result.to_rows() == [(4, big + 1), (5, -big - 1),
                                    (9, 2 * big - 1)]

    @given(st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-100, 100)),
        min_size=1, max_size=80,
    ), st.integers(2, 6))
    @settings(max_examples=50, deadline=None)
    def test_merged_partials_under_any_split(self, rows, parts):
        table = kv_table([r[0] for r in rows], [r[1] for r in rows])
        mergeable = ALL_FIVE[:4]
        partials = [group_by_aggregate(part, ["k"], mergeable)
                    for part in split_table(table, parts)]
        merged = merge_partial_aggregates(partials, ["k"], mergeable)
        expected = reference_group_by(table, ["k"], mergeable)
        for name, values in expected.items():
            assert merged.column(name).dtype == values.dtype
            assert np.array_equal(merged.column(name), values)

    # -- the guard, from both sides ------------------------------------
    @pytest.mark.parametrize("rows", [2, 7, 1000])
    def test_span_of_twice_the_rows_counts_one_more_sorts(self, rows):
        rng = np.random.default_rng(rows)
        inner = rng.integers(1, 2 * rows - 1, size=rows)
        for base in (0, -10**12, np.iinfo(np.int64).max - 2 * rows):
            keys = base + inner
            keys[0] = base
            keys[-1] = base + 2 * rows - 1        # span == 2 * rows
            assert_groups_like_the_reference(
                keyed_table(keys), ["k"], ALL_FIVE, True)
            keys[-1] = base + 2 * rows            # span == 2 * rows + 1
            assert_groups_like_the_reference(
                keyed_table(keys), ["k"], ALL_FIVE, False)

    @pytest.mark.parametrize("dtype", [DataType.INT32, DataType.INT64])
    def test_type_extremes_in_one_column_sort(self, dtype):
        # max - min is 2**32 - 1 / 2**64 - 1: in the column's own width
        # it would wrap to -1 and read as a tiny span.
        info = np.iinfo(dtype.numpy_dtype())
        table = keyed_table([info.max, info.min, 0, info.max, -1], dtype)
        result = assert_groups_like_the_reference(
            table, ["k"], ALL_FIVE, False)
        assert result.column("k").tolist() == [info.min, -1, 0, info.max]

    def test_sparse_wide_keys_sort(self):
        rng = np.random.default_rng(5)
        table = keyed_table(rng.integers(0, 2 ** 40, size=300))
        assert_groups_like_the_reference(table, ["k"], ALL_FIVE, False)

    def test_float_group_column_sorts(self):
        rng = np.random.default_rng(6)
        schema = Schema([Column("k", DataType.FLOAT64),
                         Column("v", DataType.INT64)])
        table = Table(schema, {
            "k": rng.integers(0, 5, size=100) / 2.0,
            "v": rng.integers(-9, 9, size=100),
        })
        assert_groups_like_the_reference(table, ["k"], ALL_FIVE, False)

    def test_two_group_columns_sort(self):
        rng = np.random.default_rng(7)
        schema = Schema([Column("a", DataType.INT32),
                         Column("s", DataType.DICT_STRING),
                         Column("v", DataType.INT64)])
        table = Table(schema, {
            "a": rng.integers(0, 3, size=200).astype(np.int32),
            "s": rng.integers(0, 4, size=200).astype(np.int32),
            "v": rng.integers(-9, 9, size=200),
        }, {"s": np.asarray(["d", "a", "c", "b"], dtype=object)})
        assert_groups_like_the_reference(table, ["a", "s"], ALL_FIVE, False)

    def test_unsigned_keys_above_int64(self):
        # No table column is unsigned, but the helper takes any integer
        # array: its int64 offsets must survive keys >= 2**63.
        keys = np.array([2 ** 64 - 1, 2 ** 64 - 4, 2 ** 64 - 1, 2 ** 63 + 2,
                         2 ** 64 - 2], dtype=np.uint64)
        assert aggregates_module._counted_group_ids(keys) is None
        keys = keys[[0, 1, 2, 4]]
        group_ids, distinct = aggregates_module._counted_group_ids(keys)
        expected, expected_ids = np.unique(keys, return_inverse=True)
        assert distinct.dtype == np.uint64
        assert np.array_equal(distinct, expected)
        assert np.array_equal(group_ids, expected_ids)

    # -- behaviours around the grouping that must fire as before -------
    def test_errors_and_empty_input_unchanged(self):
        table = keyed_table([1, 2, 2])
        with pytest.raises(SchemaError, match="nope"):
            group_by_aggregate(table, ["nope"], ALL_FIVE)
        with pytest.raises(SchemaError, match="nope"):
            group_by_aggregate(table.slice(0, 0), ["nope"], ALL_FIVE)
        with pytest.raises(SchemaError, match="nope"):
            group_by_aggregate(table, ["k"], [AggregateSpec("sum", "nope")])
        with pytest.raises(TableError, match="duplicate aggregate output"):
            group_by_aggregate(table, ["k"], [
                AggregateSpec("sum", "v", alias="x"),
                AggregateSpec("min", "v", alias="x")])
        with pytest.raises(TableError, match="duplicate aggregate output"):
            group_by_aggregate(table, ["k"],
                               [AggregateSpec("sum", "v", alias="k")])
        empty = group_by_aggregate(table.slice(0, 0), ["k"], ALL_FIVE)
        assert empty.num_rows == 0
        assert list(empty.schema) == list(group_by_aggregate(
            table, ["k"], ALL_FIVE).schema)
        for name in empty.schema.names:
            assert empty.column(name).dtype \
                == empty.schema.column(name).dtype.numpy_dtype()
