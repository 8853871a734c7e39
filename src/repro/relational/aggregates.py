"""Hash-based group-by aggregation.

The paper's query template always ends with ``GROUP BY ... COUNT(*)``;
JEN computes *partial* aggregates per worker during the join probe and a
single designated worker merges them (Section 3 / 4.4).  The functions
here support both steps: :func:`group_by_aggregate` for the local pass
and :func:`merge_partial_aggregates` for the final combine, with the
usual re-aggregation rules (COUNT merges by SUM, AVG merges via SUM and
COUNT, and so on).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ExpressionError, TableError
from repro.kernels.partition import sorted_bounds
from repro.relational.schema import Column, DataType, Schema
from repro.relational.table import Table

#: Aggregate function names supported by :class:`AggregateSpec`.
SUPPORTED_FUNCTIONS = ("count", "sum", "min", "max", "avg")


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate in a group-by: ``function(column) AS alias``.

    ``column`` is ignored for ``count`` (COUNT(*) semantics).
    """

    function: str
    column: Optional[str] = None
    alias: Optional[str] = None

    def __post_init__(self):
        if self.function not in SUPPORTED_FUNCTIONS:
            raise ExpressionError(
                f"unsupported aggregate {self.function!r}; "
                f"expected one of {SUPPORTED_FUNCTIONS}"
            )
        if self.function != "count" and self.column is None:
            raise ExpressionError(
                f"aggregate {self.function!r} requires a column"
            )

    def output_name(self) -> str:
        """Column name of this aggregate in the result table."""
        if self.alias:
            return self.alias
        if self.function == "count":
            return "count"
        return f"{self.function}_{self.column}"

    def output_dtype(self) -> DataType:
        """Result type: counts/sums are int64, averages float64."""
        if self.function in ("count", "sum"):
            return DataType.INT64
        if self.function == "avg":
            return DataType.FLOAT64
        return DataType.INT64


def group_by_aggregate(
    table: Table, group_columns: Sequence[str],
    aggregates: Sequence[AggregateSpec],
    units: Optional[np.ndarray] = None,
) -> Table:
    """Group ``table`` by ``group_columns`` and compute ``aggregates``.

    Result rows are ordered by ascending group key (deterministic, so
    two runs of one engine compare row for row).

    ``units`` gives each row's unit (a non-negative id; a unit is one
    worker's, fragment's or block's share of a join).  The result is
    then what :func:`merge_partial_aggregates` gives over the per-unit
    group-bys, from one grouping pass over (unit, group) and one merge:
    a float SUM is summed in row order and truncated per unit, exactly
    as a per-unit call does.  AVG cannot merge, so with ``units`` it
    raises whatever the rows.
    """
    group_columns = list(group_columns)
    if not group_columns:
        raise TableError("group_by_aggregate requires at least one group column")
    for spec in aggregates:
        if spec.column is not None:
            table.schema.column(spec.column)
    specs = None if units is None else merge_specs(aggregates)

    if table.num_rows == 0:
        group_ids = np.empty(0, dtype=np.int64)
        group_keys = [table.column(name) for name in group_columns]
    else:
        group_ids, group_keys = _group_ids(table, group_columns)
    merge = specs is not None and table.num_rows > 0 \
        and units.min() != units.max()
    if merge:
        # One partial row per (unit, group) that has rows, ordered by
        # unit then group: the per-unit partials, concatenated.
        cells = units.astype(np.int64) * len(group_keys[0])
        cells += group_ids
        counted = _counted_group_ids(cells)
        if counted is None:
            occupied, group_ids = np.unique(cells, return_inverse=True)
        else:
            group_ids, occupied = counted
        owners = occupied % len(group_keys[0])
        group_keys = [keys.take(owners) for keys in group_keys]
    num_groups = len(group_keys[0])

    out_columns: Dict[str, np.ndarray] = {}
    dictionaries: Dict[str, np.ndarray] = {}
    schema_columns: List[Column] = []
    for name, keys in zip(group_columns, group_keys):
        column = table.schema.column(name)
        schema_columns.append(column)
        out_columns[name] = keys
        if column.dtype is DataType.DICT_STRING:
            dictionaries[name] = table.dictionary(name)

    for spec in aggregates:
        values = _compute_aggregate(table, spec, group_ids, num_groups)
        out_name = spec.output_name()
        if out_name in out_columns:
            raise TableError(f"duplicate aggregate output name {out_name!r}")
        schema_columns.append(Column(out_name, spec.output_dtype()))
        out_columns[out_name] = values

    partial = Table(Schema(schema_columns), out_columns, dictionaries)
    if merge:
        return group_by_aggregate(partial, group_columns, specs)
    return partial


def merge_partial_aggregates(
    partials: Sequence[Table],
    group_columns: Sequence[str],
    aggregates: Sequence[AggregateSpec],
) -> Table:
    """Combine per-worker partial aggregates into the final result.

    Applies the standard merge rules: partial COUNT columns are summed,
    partial SUM summed, MIN/MAX re-minimised/maximised.  AVG must have
    been decomposed by the caller (the query layer plans AVG as SUM+COUNT
    and divides at the very end), so it is rejected here.
    """
    specs = merge_specs(aggregates)
    non_empty = [t for t in partials if t.num_rows] or list(partials[:1])
    if len(non_empty) == 1:
        # One partial is already grouped, key-ordered and named as the
        # merge would leave it.
        return non_empty[0]
    return group_by_aggregate(Table.concat(non_empty), group_columns, specs)


def merge_specs(aggregates: Sequence[AggregateSpec]
                ) -> List[AggregateSpec]:
    """The re-aggregation of each partial column: COUNT and SUM merge
    by SUM, MIN and MAX by themselves; AVG cannot merge."""
    for spec in aggregates:
        if spec.function == "avg":
            raise ExpressionError(
                "avg cannot be merged directly; decompose into sum and count"
            )
    merge_function = {"count": "sum", "sum": "sum", "min": "min",
                      "max": "max"}
    return [
        AggregateSpec(merge_function[spec.function],
                      column=spec.output_name(), alias=spec.output_name())
        for spec in aggregates
    ]


def _group_ids(
    table: Table, group_columns: Sequence[str]
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Dense group ids per row plus each group column's per-group value.

    Groups are numbered in ascending key order.  ``table`` has rows.
    """
    arrays = [table.column(name) for name in group_columns]
    if len(arrays) == 1:
        counted = _counted_group_ids(arrays[0])
        if counted is not None:
            return counted[0], [counted[1]]
        keys = arrays[0]
    else:
        keys = np.rec.fromarrays(arrays)
    _, representative_idx, group_ids = np.unique(
        keys, return_index=True, return_inverse=True
    )
    return group_ids.ravel(), [array[representative_idx] for array in arrays]


def _counted_group_ids(
    keys: np.ndarray,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``np.unique``'s group ids and sorted distinct keys, by counting.

    For integer keys whose value span is at most twice the row count —
    dictionary codes, dates, small join keys — a histogram over
    ``keys - min`` finds the groups without sorting the rows: the
    occupied offsets, ascending, are the distinct keys, and a row's id
    is its offset's rank among them.  The bound keeps the histogram no
    larger than twice the input; wider spans (and non-integer keys)
    return ``None`` and the caller sorts.
    """
    if keys.dtype.kind not in "iu":
        return None
    low = keys.min()
    span = int(keys.max()) - int(low) + 1
    if span > 2 * keys.size:
        return None
    # Python ints above, so a span like int64's whole range is seen as
    # what it is; within the bound every offset fits int64 (unsigned
    # keys and ``low`` wrap alike in the cast, their difference is exact).
    low = low.astype(np.int64)
    offsets = keys.astype(np.int64) - low
    occupied = np.flatnonzero(np.bincount(offsets, minlength=span))
    rank = np.empty(span, dtype=np.intp)
    rank[occupied] = np.arange(occupied.size, dtype=np.intp)
    return rank[offsets], (occupied + low).astype(keys.dtype)


def _compute_aggregate(
    table: Table, spec: AggregateSpec, group_ids: np.ndarray, num_groups: int
) -> np.ndarray:
    if num_groups == 0:
        dtype = spec.output_dtype().numpy_dtype()
        return np.empty(0, dtype=dtype)
    if spec.function == "count":
        return np.bincount(group_ids, minlength=num_groups).astype(np.int64)

    values = table.column(spec.column)
    if spec.function == "sum" and values.dtype.kind not in "iu":
        return np.bincount(
            group_ids, weights=values.astype(np.float64), minlength=num_groups
        ).astype(np.int64)
    if spec.function == "avg":
        sums = np.bincount(
            group_ids, weights=values.astype(np.float64), minlength=num_groups
        )
        counts = np.bincount(group_ids, minlength=num_groups)
        return sums / np.maximum(counts, 1)
    # min/max and integer sum: sort rows by group, reduce contiguous
    # runs (group ids are dense, so no run is empty).  Integer sums
    # accumulate in int64 — float64 weights would round from 2**53.
    order, bounds = sorted_bounds(group_ids, num_groups)
    reducer = {"min": np.minimum, "max": np.maximum,
               "sum": np.add}[spec.function]
    dtype = np.int64 if spec.function == "sum" else None
    return reducer.reduceat(
        values[order], bounds[:-1], dtype=dtype
    ).astype(np.int64)
