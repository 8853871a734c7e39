"""Unit and property tests for repro.relational.aggregates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExpressionError, TableError
from repro.relational.aggregates import (
    AggregateSpec,
    group_by_aggregate,
    merge_partial_aggregates,
)
from repro.relational.schema import Column, DataType, Schema
from repro.relational.table import Table


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
            assert merged.schema == regrouped.schema
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
            for part in table.split(3)
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
            for part in table.split(parts)
        ]
        merged = merge_partial_aggregates(partials, ["k"], aggregates)
        assert merged.to_rows() == whole.to_rows()
