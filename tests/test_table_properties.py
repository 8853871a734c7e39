"""Property-based tests for table-operation algebraic invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.schema import Column, DataType, Schema
from repro.relational.table import Table
from tests.conftest import split_table


def make_table(keys, values):
    schema = Schema([Column("k", DataType.INT64),
                     Column("v", DataType.INT64)])
    return Table(schema, {
        "k": np.array(keys, dtype=np.int64),
        "v": np.array(values, dtype=np.int64),
    })


rows_strategy = st.lists(
    st.tuples(st.integers(-100, 100), st.integers(-10**6, 10**6)),
    min_size=0, max_size=200,
)


@given(rows=rows_strategy, parts=st.integers(1, 9))
@settings(max_examples=60, deadline=None)
def test_split_concat_identity(rows, parts):
    keys = [r[0] for r in rows] or [0]
    values = [r[1] for r in rows] or [0]
    table = make_table(keys, values)
    rebuilt = Table.concat(split_table(table, parts))
    assert rebuilt.to_rows() == table.to_rows()


@given(rows=rows_strategy, threshold=st.integers(-100, 100))
@settings(max_examples=60, deadline=None)
def test_filter_partition_complement(rows, threshold):
    """filter(mask) and filter(~mask) partition the rows exactly."""
    keys = [r[0] for r in rows] or [0]
    values = [r[1] for r in rows] or [0]
    table = make_table(keys, values)
    mask = table.column("k") <= threshold
    kept = table.filter(mask)
    dropped = table.filter(~mask)
    assert kept.num_rows + dropped.num_rows == table.num_rows
    assert sorted(kept.to_rows() + dropped.to_rows()) == \
        sorted(table.to_rows())


@given(rows=rows_strategy)
@settings(max_examples=60, deadline=None)
def test_project_then_project_is_project(rows):
    keys = [r[0] for r in rows] or [0]
    values = [r[1] for r in rows] or [0]
    table = make_table(keys, values)
    twice = table.project(["k", "v"]).project(["v"])
    once = table.project(["v"])
    assert twice.to_rows() == once.to_rows()


@given(rows=rows_strategy, seed=st.integers(0, 100))
@settings(max_examples=40, deadline=None)
def test_take_gather_matches_python(rows, seed):
    keys = [r[0] for r in rows] or [0]
    values = [r[1] for r in rows] or [0]
    table = make_table(keys, values)
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, table.num_rows, size=min(50, table.num_rows))
    gathered = table.take(indices)
    expected = [table.to_rows()[i] for i in indices.tolist()]
    assert gathered.to_rows() == expected
