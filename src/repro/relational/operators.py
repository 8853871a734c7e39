"""Vectorised relational operators: equi-join index computation and
table-level join materialisation.

The join here is the *local* building block: every distributed algorithm
in the paper ultimately ends with each worker running an in-memory hash
join on its slice of the data.  The numpy implementation below is
sort-based rather than literally hash-based, which is semantically
identical for equi-joins and much faster in pure Python; the time plane
prices it with hash-join build/probe rates, matching the engines the
paper describes.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SchemaError, TableError
from repro.kernels.joinindex import JoinBuildIndex, probe_join
from repro.relational.schema import DataType, Schema
from repro.relational.table import Table


def hash_join_indices(
    build_keys: np.ndarray, probe_keys: np.ndarray,
    build_index: Optional[JoinBuildIndex] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """All matching (build_row, probe_row) index pairs for an equi-join.

    Returns two int64 arrays of equal length: positions into the build
    side and the probe side.  Every pair of rows with equal keys appears
    exactly once, so duplicate keys multiply out as SQL requires.

    ``build_index`` is an optional pre-sorted
    :class:`~repro.kernels.JoinBuildIndex` over ``build_keys``; passing
    one skips the build-side sort (the kernel verifies it covers these
    keys before trusting it).
    """
    return probe_join(build_keys, probe_keys, build_index=build_index)


def join_tables(
    build: Table,
    probe: Table,
    build_key: str,
    probe_key: str,
    build_prefix: str = "",
    probe_prefix: str = "",
    build_index: Optional[JoinBuildIndex] = None,
) -> Table:
    """Materialise the inner equi-join of two tables.

    Column name collisions are resolved with the given prefixes; it is an
    error if any collision remains after prefixing.  The join key appears
    once per side (possibly prefixed), exactly as the paper's SQL
    produces.  ``build_index`` optionally reuses a pre-sorted build side
    (see :func:`hash_join_indices`).
    """
    build_idx, probe_idx = hash_join_indices(
        build.column(build_key), probe.column(probe_key),
        build_index=build_index,
    )
    return joined_rows(build, probe, build_idx, probe_idx,
                       build_prefix, probe_prefix)


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
    positives) lives in :mod:`repro.core.bloom`.  The exact version is the
    reference the property tests compare against, and implements the
    classic semijoin baseline from the related-work discussion.
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


def partition_by_hash(
    table: Table, key: str, num_partitions: int,
    hash_function: Optional[object] = None,
) -> Sequence[Table]:
    """Split ``table`` into ``num_partitions`` by hashing ``key``.

    ``hash_function`` maps an int array to partition numbers; the default
    is the library-wide agreed hash (see :mod:`repro.edw.partitioner`).
    Used by both the database side and JEN when they shuffle with the
    *agreed* hash function of the repartition and zigzag joins.

    Runs the single-pass partition kernel: one stable sort and one
    gather regardless of ``num_partitions``, bit-identical to filtering
    per destination.
    """
    from repro.edw.partitioner import agreed_hash_partition
    from repro.kernels.partition import partition_table

    if num_partitions <= 0:
        raise TableError("num_partitions must be positive")
    keys = table.column(key)
    if hash_function is None:
        assignments = agreed_hash_partition(keys, num_partitions)
    else:
        assignments = np.asarray(hash_function(keys, num_partitions))
    return partition_table(table, assignments, num_partitions)


def _prefix_mapping(names: Sequence[str], prefix: str) -> Dict[str, str]:
    if not prefix:
        return {}
    return {name: f"{prefix}{name}" for name in names}
