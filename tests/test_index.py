"""Tests for the database secondary index."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bloom import BloomFilter
from repro.edw.index import SecondaryIndex
from repro.errors import CatalogError
from repro.relational.expressions import TruePredicate, compare
from repro.relational.schema import Column, DataType, Schema
from repro.relational.table import Table


def make_partition(rows=200, seed=1):
    rng = np.random.default_rng(seed)
    schema = Schema([
        Column("corPred", DataType.INT32),
        Column("indPred", DataType.INT32),
        Column("joinKey", DataType.INT32),
        Column("payload", DataType.INT64),
    ])
    return Table(schema, {
        "corPred": rng.integers(0, 100, rows).astype(np.int32),
        "indPred": rng.integers(0, 100, rows).astype(np.int32),
        "joinKey": rng.integers(0, 50, rows).astype(np.int32),
        "payload": rng.integers(0, 10**9, rows),
    })


class TestConstruction:
    def test_needs_columns(self):
        with pytest.raises(CatalogError):
            SecondaryIndex("idx", make_partition(), [])

    def test_unknown_column(self):
        with pytest.raises(Exception):
            SecondaryIndex("idx", make_partition(), ["ghost"])

    def test_covers(self):
        index = SecondaryIndex("idx", make_partition(),
                               ["corPred", "indPred", "joinKey"])
        assert index.covers(["corPred", "joinKey"])
        assert not index.covers(["payload"])


class TestLookups:
    def setup_method(self):
        self.table = make_partition()
        self.index = SecondaryIndex(
            "idx", self.table, ["corPred", "indPred", "joinKey"]
        )

    def _check(self, predicate):
        """The index's entries of the matching rows, as a multiset of
        ``(corPred, indPred, joinKey)`` triples, are the base table's."""
        mask = predicate.evaluate(self.table)
        expected = sorted(zip(*(self.table.column(name)[mask].tolist()
                                for name in self.index.key_columns)))
        got = sorted(zip(*(self.index.lookup(predicate, name).tolist()
                           for name in self.index.key_columns)))
        assert got == expected

    def test_le_range(self):
        self._check(compare("corPred", "<=", 30))

    def test_lt_gt_ge(self):
        self._check(compare("corPred", "<", 10))
        self._check(compare("corPred", ">", 90))
        self._check(compare("corPred", ">=", 95))

    def test_eq(self):
        self._check(compare("corPred", "==", 17))

    def test_conjunction_paper_predicate(self):
        self._check(
            compare("corPred", "<=", 40) & compare("indPred", "<=", 25)
        )

    def test_none_and_true_predicate_return_all(self):
        assert len(self.index.lookup(None, "joinKey")) == \
            self.table.num_rows
        assert len(self.index.lookup(TruePredicate(), "joinKey")) == \
            self.table.num_rows

    def test_uncovered_column_raises(self):
        with pytest.raises(CatalogError, match="does not cover"):
            self.index.lookup(compare("payload", "<=", 5), "joinKey")

    def test_non_column_predicate_raises(self):
        from repro.relational.expressions import UdfPredicate
        with pytest.raises(CatalogError, match="cannot evaluate"):
            self.index.lookup(
                UdfPredicate("odd", "corPred", lambda values: values % 2 == 1),
                "joinKey",
            )

    def test_index_only_column_fetch(self):
        """The keys come out in index order: the rows stably sorted
        on the leading column, then filtered."""
        predicate = compare("corPred", "<=", 50)
        order = np.argsort(self.table.column("corPred"), kind="stable")
        in_index_order = self.table.take(order)
        expected = in_index_order.column("joinKey")[
            predicate.evaluate(in_index_order)]
        keys = self.index.lookup(predicate, "joinKey")
        assert np.array_equal(keys, expected)

    def test_fetch_unmaterialised_column_raises(self):
        with pytest.raises(CatalogError, match="does not materialise"):
            self.index.lookup(None, "payload")

    def test_empty_result_range(self):
        got = self.index.lookup(compare("corPred", ">", 10_000), "joinKey")
        assert len(got) == 0


@given(rows=st.integers(0, 300), seed=st.integers(0, 2**16),
       key_span=st.sampled_from([40, 10**9]),
       op=st.sampled_from(["<=", "<", ">", ">=", "=="]),
       lead=st.integers(-5, 105), ind=st.integers(-5, 105))
@settings(max_examples=80, deadline=None)
def test_bloom_from_index_order_keys_equals_row_order(rows, seed, key_span,
                                                       op, lead, ind):
    """BF_DB hashed from the index's keys, in index order, has the
    words of one hashed from the base rows' keys in row order (a
    narrow key span takes the distinct-key path, a wide one hashes
    every key)."""
    table = make_partition(rows, seed)
    keys = np.random.default_rng(seed).integers(0, key_span, rows)
    table = Table(table.schema, {
        **{name: table.column(name) for name in table.schema.names},
        "joinKey": keys.astype(np.int32),
    })
    index = SecondaryIndex("idx", table, ["corPred", "indPred", "joinKey"])
    predicate = compare("corPred", op, lead) & compare("indPred", "<=", ind)
    from_index = BloomFilter(1024, 2, seed=7)
    from_index.add(index.lookup(predicate, "joinKey"))
    from_rows = BloomFilter(1024, 2, seed=7)
    from_rows.add(table.column("joinKey")[predicate.evaluate(table)])
    assert np.array_equal(from_index._words, from_rows._words)
    assert from_index.num_added == from_rows.num_added
