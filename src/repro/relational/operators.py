"""Vectorised relational operators: joined-row materialisation and the
exact semijoin.

The join is the *local* building block: every distributed algorithm in
the paper ultimately ends with each worker running an in-memory hash
join on its slice of the data.  The matching index pairs come from
a :class:`repro.kernels.joinindex.JoinBuildIndex` (sort-based rather than
literally hash-based, which is semantically identical for equi-joins
and much faster in pure Python; the time plane prices it with hash-join
build/probe rates, matching the engines the paper describes), and
:func:`joined_rows` gathers the prefixed columns at those pairs.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.errors import SchemaError, TableError
from repro.relational.schema import DataType, Schema
from repro.relational.table import Table


def joined_rows(
    build: Table,
    probe: Table,
    build_idx: np.ndarray,
    probe_idx: np.ndarray,
    build_prefix: str = "",
    probe_prefix: str = "",
    names: Optional[Sequence[str]] = None,
) -> Table:
    """The joined rows at matching index pairs, prefixed per side.

    ``names`` restricts the output to those joined (prefixed) columns:
    only they are gathered, so a consumer that reads two columns of a
    five-column join moves two.  Build-side columns come first.  The
    collision and unknown-column errors are those of the full join,
    whatever ``names`` selects.
    """
    sides = ((build, build_prefix, build_idx),
             (probe, probe_prefix, probe_idx))
    build_names, probe_names = (
        [f"{prefix}{name}" for name in side.schema.names]
        for side, prefix, _idx in sides
    )
    collisions = set(build_names) & set(probe_names)
    if collisions:
        raise TableError(
            f"join output column collision: {sorted(collisions)}; "
            "supply build_prefix/probe_prefix"
        )
    for name in names or ():
        if name not in build_names and name not in probe_names:
            raise SchemaError(
                f"unknown column {name!r}; have {build_names + probe_names}"
            )

    schema_columns = []
    columns: Dict[str, np.ndarray] = {}
    dictionaries: Dict[str, np.ndarray] = {}
    for side, prefix, idx in sides:
        kept = [name for name in side.schema.names
                if names is None or f"{prefix}{name}" in names]
        rows = side.project(kept).take(idx).rename(
            _prefix_mapping(kept, prefix))
        for column in rows.schema:
            schema_columns.append(column)
            columns[column.name] = rows.column(column.name)
            if column.dtype is DataType.DICT_STRING:
                dictionaries[column.name] = rows.dictionary(column.name)
    return Table(Schema(schema_columns), columns, dictionaries)


def semi_join_mask(keys: np.ndarray, membership_keys: np.ndarray) -> np.ndarray:
    """Boolean mask of ``keys`` that appear in ``membership_keys``.

    This is the *exact* semi-join; Bloom-filter based pruning (with false
    positives) lives in :mod:`repro.core.bloom`.  It is the operator of
    the classic semijoin baseline from the related-work discussion
    (:class:`repro.core.joins.semijoin.SemiJoin`).
    """
    keys = np.asarray(keys)
    if keys.size == 0:
        return np.zeros(0, dtype=bool)
    members = np.unique(np.asarray(membership_keys))
    if members.size == 0:
        return np.zeros(len(keys), dtype=bool)
    positions = np.searchsorted(members, keys)
    positions = np.clip(positions, 0, len(members) - 1)
    return members[positions] == keys


def unique_keys(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct join keys (the paper's ``JK(.)`` operator)."""
    return np.unique(np.asarray(keys))


def _prefix_mapping(names: Sequence[str], prefix: str) -> Dict[str, str]:
    if not prefix:
        return {}
    return {name: f"{prefix}{name}" for name in names}
