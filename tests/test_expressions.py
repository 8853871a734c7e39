"""Unit tests for repro.relational.expressions."""

import numpy as np
import pytest

from repro.errors import ExpressionError
from repro.relational.expressions import (
    Band,
    BetweenDayDiff,
    Conjunction,
    TruePredicate,
    UdfPredicate,
    compare,
    conjunction_of,
)
from repro.relational.schema import Column, DataType, Schema
from repro.relational.table import Table


def date_table():
    schema = Schema([
        Column("t_date", DataType.DATE),
        Column("l_date", DataType.DATE),
    ])
    return Table(schema, {
        "t_date": np.array([5, 5, 5, 5]),
        "l_date": np.array([5, 4, 3, 6]),
    })


class TestCompareOps:
    # Rows under test hold k = [1, 2, 2].
    @pytest.mark.parametrize("op,expected", [
        ("==", [False, True, True]),
        ("!=", [True, False, False]),
        ("<", [True, False, False]),
        ("<=", [True, True, True]),
        (">", [False, False, False]),
        (">=", [False, True, True]),
    ])
    def test_all_operators(self, op, expected, small_table):
        predicate = compare("k", op, 2)
        table = small_table.slice(0, 3)
        assert predicate.evaluate(table).tolist() == expected

    def test_unknown_operator(self):
        with pytest.raises(ExpressionError, match="unknown comparison"):
            compare("k", "~", 1)

    def test_columns(self):
        assert compare("k", "<", 1).columns() == ("k",)


class TestBooleanCombinators:
    def test_and(self, small_table):
        predicate = compare("k", ">=", 2) & compare("v", "<=", 21)
        assert predicate.evaluate(small_table).tolist() == [
            False, True, True, False, False
        ]

    def test_columns_deduplicated(self):
        predicate = compare("a", "<", 1) & compare("a", ">", 0) \
            & compare("b", "==", 2)
        assert predicate.columns() == ("a", "b")

    def test_empty_conjunction_true(self, small_table):
        assert Conjunction(()).evaluate(small_table).all()

    def test_true_predicate(self, small_table):
        assert TruePredicate().evaluate(small_table).all()
        assert TruePredicate().columns() == ()

    def test_conjunction_of_helper(self, small_table):
        assert isinstance(conjunction_of([]), TruePredicate)
        single = compare("k", "<", 3)
        assert conjunction_of([single]) is single
        assert isinstance(
            conjunction_of([single, TruePredicate(), single]), Conjunction
        )


class TestBetweenDayDiff:
    def test_paper_post_join_predicate(self):
        predicate = BetweenDayDiff("t_date", "l_date", low=0, high=1)
        # diffs: 0, 1, 2, -1 -> True, True, False, False
        assert predicate.evaluate(date_table()).tolist() == [
            True, True, False, False
        ]

    def test_columns(self):
        predicate = BetweenDayDiff("t_date", "l_date")
        assert predicate.columns() == ("t_date", "l_date")


class TestBand:
    """``Predicate.band``: L is the build side (``l_``), T the probe
    side (``t_``), and a band reads ``low <= probe - build <= high``."""

    def test_probe_minus_build(self):
        predicate = BetweenDayDiff("t_date", "l_date", low=0, high=1)
        assert predicate.band("l_", "t_") == Band("date", "date", 0, 1)

    def test_build_minus_probe_is_turned_around(self):
        predicate = BetweenDayDiff("l_day", "t_date", low=-1, high=3)
        assert predicate.band("l_", "t_") == Band("day", "date", -3, 1)

    def test_sql_sentinels_and_numpy_bounds_pass_through(self):
        predicate = BetweenDayDiff("t_date", "l_date", low=np.int64(0),
                                   high=2**31)
        band = predicate.band("l_", "t_")
        assert (band.low, band.high) == (0, 2**31)
        assert type(band.low) is int

    @pytest.mark.parametrize("predicate", [
        BetweenDayDiff("t_date", "t_other"),
        BetweenDayDiff("l_date", "l_other"),
        BetweenDayDiff("t_date", "x_date"),
        BetweenDayDiff("t_date", "l_date", low=0.5, high=1),
        BetweenDayDiff("t_date", "l_date", low=True, high=1),
        compare("t_date", ">=", 0),
        TruePredicate(),
    ], ids=["both-probe", "both-build", "unknown-side", "float-bound",
            "bool-bound", "comparison", "true"])
    def test_no_band(self, predicate):
        assert predicate.band("l_", "t_") is None

    def test_prefix_matching_both_sides_is_ambiguous(self):
        predicate = BetweenDayDiff("t_date", "l_date")
        assert predicate.band("", "t_") is None

    def test_conjunction_keeps_the_rest_as_residual(self):
        other = compare("l_v", ">", 0)
        band = Conjunction((
            other, BetweenDayDiff("t_date", "l_date", 0, 1),
            compare("t_v", "<", 9))).band("l_", "t_")
        assert (band.build_column, band.probe_column) == ("date", "date")
        assert band.residual == Conjunction(
            (other, compare("t_v", "<", 9)))

    def test_conjunction_with_the_band_alone_has_no_residual(self):
        band = Conjunction((BetweenDayDiff("t_date", "l_date"),)).band(
            "l_", "t_")
        assert band == Band("date", "date", 0, 1)

    def test_only_the_first_band_is_cut_the_second_is_residual(self):
        first = BetweenDayDiff("t_date", "l_date", 0, 5)
        second = BetweenDayDiff("t_x", "l_x", 0, 1)
        band = (first & second).band("l_", "t_")
        assert band.build_column == "date"
        assert band.residual == second

    def test_nested_conjunction_residuals_combine(self):
        inner = compare("l_v", ">", 0) & BetweenDayDiff("t_d", "l_d")
        band = (inner & compare("t_v", "<", 9)).band("l_", "t_")
        assert band.build_column == "d"
        assert band.residual == Conjunction(
            (compare("t_v", "<", 9), compare("l_v", ">", 0)))

    def test_residual_evaluates_like_the_rest(self):
        table = date_table()
        full = BetweenDayDiff("t_date", "l_date") & compare("l_date", ">", 3)
        band = full.band("l_", "t_")
        in_band = BetweenDayDiff("t_date", "l_date").evaluate(table)
        assert (in_band & band.residual.evaluate(table)).tolist() == \
            full.evaluate(table).tolist()


class TestUdfPredicate:
    def test_region_style_udf(self, small_table):
        predicate = UdfPredicate(
            "is_even", "v", lambda values: values % 2 == 0
        )
        assert predicate.evaluate(small_table).tolist() == [
            True, True, False, True, True
        ]

    def test_bad_return_shape_raises(self, small_table):
        predicate = UdfPredicate("bad", "v", lambda values: values)
        with pytest.raises(ExpressionError, match="boolean mask"):
            predicate.evaluate(small_table)
