"""The trusted single-node oracle for hybrid queries.

:func:`oracle_execute` answers any :class:`~repro.query.query.
HybridQuery` over two plain tables using nothing but numpy primitives
and Python dictionaries: a dict-based hash join, row-at-a-time UDF
evaluation for derived columns, and a dict-based group-by.  It shares
*no* code with the engines — not the partitioners, not the kernels, not
the join operators, not the shared plan steps or the group-by — so a
bug in any shared kernel cannot cancel out between the system under
test and this oracle.  It is the one reference every engine is checked
against; :func:`dict_hash_join` also builds the single-node side of the
star-schema references.

The comparison helpers treat results as **row multisets**: every engine
in the reproduction is exact, so two correct executors may only differ
in row order.  :func:`compare_tables` returns ``None`` on equivalence
or a readable first-divergence diff (missing rows, extra rows,
first differing sorted position) meant to be pasted straight into a bug
report.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.query.query import HybridQuery
from repro.relational.aggregates import AggregateSpec
from repro.relational.schema import Column, DataType, Schema
from repro.relational.table import Table, table_from_rows

Rows = List[Tuple]


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _filter_rows(table: Table, predicate) -> Table:
    """Boolean-mask filter via plain numpy indexing (no Table.filter)."""
    mask = np.asarray(predicate.evaluate(table), dtype=bool)
    columns = {
        name: table.column(name)[mask] for name in table.schema.names
    }
    dictionaries = {
        column.name: table.dictionary(column.name)
        for column in table.schema
        if column.dtype is DataType.DICT_STRING
    }
    return Table(table.schema, columns, dictionaries)


def _apply_derived_rowwise(table: Table, query: HybridQuery) -> Table:
    """Compute derived columns one row at a time (no memoised kernel).

    Deliberately the dumbest correct implementation: the UDF runs per
    row over the materialised strings, and the derived dictionary is
    rebuilt with ``np.unique`` — independently of the per-dictionary
    memoisation the engines use.
    """
    for derived in query.hdfs_derived:
        source_values = table.strings(derived.source)
        derived_values = np.array(
            [derived.function(value) for value in source_values],
            dtype=object,
        )
        dictionary, codes = np.unique(derived_values, return_inverse=True)
        column = Column(derived.name, DataType.DICT_STRING,
                        derived.width_bytes)
        table = table.with_column(
            column, codes.astype(np.int32), dictionary=dictionary
        )
    return table


def dict_hash_join(left: Table, right: Table, left_key: str,
                   right_key: str, left_prefix: str = "",
                   right_prefix: str = "") -> Table:
    """Inner equi-join via a Python dict built over ``right``.

    Output columns are ``left``'s then ``right``'s, each carrying its
    side's prefix; a name that still collides is a ``SchemaError``.
    """
    build: Dict[int, List[int]] = {}
    for row, key in enumerate(right.column(right_key).tolist()):
        build.setdefault(key, []).append(row)

    left_matches: List[int] = []
    right_matches: List[int] = []
    for row, key in enumerate(left.column(left_key).tolist()):
        for right_row in build.get(key, ()):
            left_matches.append(row)
            right_matches.append(right_row)
    left_idx = np.asarray(left_matches, dtype=np.int64)
    right_idx = np.asarray(right_matches, dtype=np.int64)

    columns: Dict[str, np.ndarray] = {}
    dictionaries: Dict[str, np.ndarray] = {}
    schema_columns: List[Column] = []
    for prefix, side, idx in (
        (left_prefix, left, left_idx),
        (right_prefix, right, right_idx),
    ):
        for column in side.schema:
            name = f"{prefix}{column.name}"
            schema_columns.append(
                Column(name, column.dtype, column.width_bytes)
            )
            columns[name] = side.column(column.name)[idx]
            if column.dtype is DataType.DICT_STRING:
                dictionaries[name] = side.dictionary(column.name)
    return Table(Schema(schema_columns), columns, dictionaries)


def _group_value(table: Table, name: str, row: int):
    column = table.schema.column(name)
    if column.dtype is DataType.DICT_STRING:
        return table.dictionary(name)[table.column(name)[row]]
    return table.column(name)[row].item()


def _aggregate_rowwise(joined: Table, query: HybridQuery) -> Table:
    """Dict-based group-by over the joined rows.

    ``avg`` is decomposed into (sum, count) during accumulation; the
    other functions accumulate directly.  Output rows come back sorted
    by ascending group value (strings for dict-string group columns) —
    a deterministic order, though callers should still compare as
    multisets via :func:`compare_tables`.
    """
    group_names = list(query.group_by)
    specs = list(query.aggregates)
    groups: Dict[Tuple, List] = {}
    for row in range(joined.num_rows):
        key = tuple(
            _group_value(joined, name, row) for name in group_names
        )
        state = groups.get(key)
        if state is None:
            state = [_fresh_state(spec) for spec in specs]
            groups[key] = state
        for spec, accumulator in zip(specs, state):
            _accumulate(spec, accumulator, joined, row)

    schema_columns = [joined.schema.column(name) for name in group_names]
    schema_columns += [
        Column(spec.output_name(), spec.output_dtype()) for spec in specs
    ]
    rows = []
    for key in sorted(groups):
        rows.append(key + tuple(
            _finalise(spec, accumulator)
            for spec, accumulator in zip(specs, groups[key])
        ))
    return table_from_rows(Schema(schema_columns), rows)


def _fresh_state(spec: AggregateSpec):
    if spec.function == "count":
        return [0]
    if spec.function == "sum":
        return [0]
    if spec.function == "avg":
        return [0, 0]  # running sum, running count
    return [None]  # min / max


def _accumulate(spec: AggregateSpec, state: List, joined: Table,
                row: int) -> None:
    if spec.function == "count":
        state[0] += 1
        return
    value = joined.column(spec.column)[row].item()
    if spec.function == "sum":
        state[0] += value
    elif spec.function == "avg":
        state[0] += value
        state[1] += 1
    elif spec.function == "min":
        state[0] = value if state[0] is None else min(state[0], value)
    else:  # max
        state[0] = value if state[0] is None else max(state[0], value)


def _finalise(spec: AggregateSpec, state: List):
    if spec.function == "avg":
        return state[0] / state[1] if state[1] else 0.0
    return state[0]


def oracle_execute(t_table: Table, l_table: Table,
                   query: HybridQuery) -> Table:
    """Run ``query`` over unpartitioned tables with the trusted oracle.

    The pipeline mirrors the query semantics, not any engine: filter
    both sides, project, derive row-wise, dict-hash-join, apply the
    post-join predicate, group and aggregate with Python dicts.

    Empty-join semantics (the contract the approximate estimators must
    match): a join that produces no qualifying rows yields a **zero-row
    table** with the full result schema — groups are only materialised
    when at least one row lands in them, so there is no ``count=0`` row,
    no ``sum`` over nothing, and ``avg`` of an empty group can only
    arise through :func:`_finalise`'s explicit ``0.0`` convention (a
    defensive branch; a materialised group always has ``count >= 1``).
    """
    t_side = _filter_rows(t_table, query.db_predicate)
    t_side = t_side.project(list(query.db_projection))

    l_side = _filter_rows(l_table, query.hdfs_predicate)
    l_side = l_side.project(list(query.hdfs_projection))
    l_side = _apply_derived_rowwise(l_side, query)
    l_side = l_side.project(list(query.hdfs_wire_columns()))

    joined = dict_hash_join(t_side, l_side, query.db_join_key,
                            query.hdfs_join_key, query.db_prefix,
                            query.hdfs_prefix)
    if query.post_join_predicate is not None:
        joined = _filter_rows(joined, query.post_join_predicate)
    return _aggregate_rowwise(joined, query)


def oracle_aggregate_cells(t_table: Table, l_table: Table,
                           query: HybridQuery) -> Dict[Tuple, object]:
    """The exact answer as a ``(group, aggregate) -> value`` map.

    The cell form the statistical contract consumes: each key pairs the
    group-value tuple with one aggregate's output name, mirroring
    :class:`repro.approx.estimator.ApproxEstimate.cells` so coverage
    checks can line the two up directly.  An empty join yields an empty
    map — the absence of a group *is* the exact answer for it.
    """
    result = oracle_execute(t_table, l_table, query)
    n_groups = len(query.group_by)
    names = [spec.output_name() for spec in query.aggregates]
    cells: Dict[Tuple, object] = {}
    for row in result.to_rows():
        key = row[:n_groups]
        for name, value in zip(names, row[n_groups:]):
            cells[(key, name)] = value
    return cells


# ----------------------------------------------------------------------
# Canonical comparison
# ----------------------------------------------------------------------
def canonical_rows(result: Union[Table, Sequence[Tuple]]) -> Rows:
    """Rows as a sorted list of tuples (the canonical multiset form)."""
    rows = result.to_rows() if isinstance(result, Table) else list(result)
    return sorted(rows)


def compare_tables(actual: Union[Table, Sequence[Tuple]],
                   expected: Union[Table, Sequence[Tuple]],
                   label: str = "result",
                   max_examples: int = 5) -> Optional[str]:
    """None when the row multisets agree; a readable diff otherwise.

    The diff leads with the first divergence in canonical (sorted)
    order, then lists up to ``max_examples`` missing and extra rows
    with their multiplicities.
    """
    if isinstance(actual, Table) and isinstance(expected, Table):
        if actual.schema.names != expected.schema.names:
            return (
                f"{label}: column mismatch: actual "
                f"{list(actual.schema.names)} vs expected "
                f"{list(expected.schema.names)}"
            )
    actual_rows = canonical_rows(actual)
    expected_rows = canonical_rows(expected)
    if actual_rows == expected_rows:
        return None

    lines = [
        f"{label}: row multisets diverge "
        f"({len(actual_rows)} actual rows vs {len(expected_rows)} expected)"
    ]
    for position, (got, want) in enumerate(zip(actual_rows, expected_rows)):
        if got != want:
            lines.append(
                f"  first divergence at sorted row {position}: "
                f"actual={got!r} expected={want!r}"
            )
            break
    else:
        position = min(len(actual_rows), len(expected_rows))
        longer = "actual" if len(actual_rows) > len(expected_rows) \
            else "expected"
        surplus = (actual_rows if longer == "actual" else expected_rows)
        lines.append(
            f"  first divergence at sorted row {position}: only "
            f"{longer} continues, with {surplus[position]!r}"
        )
    missing = Counter(expected_rows) - Counter(actual_rows)
    extra = Counter(actual_rows) - Counter(expected_rows)
    for title, bag in (("missing from actual", missing),
                       ("unexpected in actual", extra)):
        if not bag:
            continue
        total = sum(bag.values())
        lines.append(f"  {title}: {total} row(s)")
        for row, count in list(sorted(bag.items()))[:max_examples]:
            suffix = f" (x{count})" if count > 1 else ""
            lines.append(f"    {row!r}{suffix}")
        if len(bag) > max_examples:
            lines.append(f"    ... and {len(bag) - max_examples} more")
    return "\n".join(lines)


def assert_equivalent(actual: Union[Table, Sequence[Tuple]],
                      expected: Union[Table, Sequence[Tuple]],
                      label: str = "result") -> None:
    """Raise AssertionError with the first-divergence diff on mismatch."""
    diff = compare_tables(actual, expected, label=label)
    if diff is not None:
        raise AssertionError(diff)
