"""Local plan steps shared by every engine.

Whatever the distributed strategy, each worker ultimately performs the
same local pipeline on its slice of data:

1. join its T-side rows with its L-side rows (prefixing columns);
2. apply the post-join predicate;
3. compute partial group-by aggregates.

One designated worker then merges the partials.  Keeping these steps in
one module guarantees the algorithms cannot drift apart semantically;
the tests check every one of them against the single-node oracle
(:mod:`repro.testkit.oracle`), which shares none of this code.

The engines run the three steps fused (:func:`join_partial_aggregate`),
which never materialises a joined row.  The L side is the hash-table
(build) side, as in JEN: the filtered HDFS data is already streaming in
while the database data arrives later, so JEN builds on L'' and probes
with the database rows (paper Section 4.4).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels.joinindex import JoinBuildIndex, fits_band
from repro.relational.aggregates import (
    group_by_aggregate,
    merge_partial_aggregates,
)
from repro.relational.expressions import Band
from repro.relational.operators import joined_rows
from repro.relational.table import Table
from repro.query.query import HybridQuery


def join_band(t_part: Table, l_part: Table, query: HybridQuery
              ) -> Optional[Band]:
    """The band of the post-join predicate a banded
    :class:`JoinBuildIndex` can cut out of this join, or ``None``.

    Present when the predicate exposes one (:meth:`Predicate.band`)
    and both sides' join keys and band columns pass :func:`fits_band`.
    """
    predicate = query.post_join_predicate
    band = (None if predicate is None
            else predicate.band(query.hdfs_prefix, query.db_prefix))
    if band is None:
        return None
    for side, key, name in (
            (l_part, query.hdfs_join_key, band.build_column),
            (t_part, query.db_join_key, band.probe_column)):
        if not (side.schema.has_column(name) and side.schema.has_column(key)
                and fits_band(side.column(key), side.column(name))):
            return None
    return band


def join_build_columns(t_part: Table, l_part: Table, query: HybridQuery
                       ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """``(build_keys, band_values)``: what a :class:`JoinBuildIndex`
    for this join is built over (``band_values`` is ``None`` when the
    query has no usable band)."""
    band = join_band(t_part, l_part, query)
    return (l_part.column(query.hdfs_join_key),
            None if band is None else l_part.column(band.build_column))


def join_partial_aggregate(
    t_part: Table, l_part: Table, query: HybridQuery,
    build_index: Optional[JoinBuildIndex] = None,
) -> Tuple[Table, int]:
    """Join, post-join predicate and partial group-by without ever
    materialising the joined rows (paper Section 4.4: the partial
    aggregates are computed during the probe).

    The probe yields ``(build, probe)`` index pairs.  When the post-join
    predicate carries an integer band (:func:`join_band`) and the build
    index could pack it, the probe yields only the pairs inside the
    band and the predicate's residual, if any, sees those.  Otherwise
    the predicate sees every key match, through only the columns it
    reads, and the pairs it rejects are dropped.  The group-by sees
    only its own and the aggregates' columns, gathered at the
    survivors.  Returns the partial — what aggregating the filtered,
    fully materialised joined rows would give — and the number of pairs
    *before* the predicate, i.e. the join's output cardinality.

    ``build_index`` is reused when it :meth:`~JoinBuildIndex.matches`
    this join's :func:`join_build_columns`, and rebuilt otherwise.
    """
    band = join_band(t_part, l_part, query)
    build_keys = l_part.column(query.hdfs_join_key)
    band_values = None if band is None else l_part.column(band.build_column)
    if build_index is None \
            or not build_index.matches(build_keys, band_values):
        build_index = JoinBuildIndex(build_keys, band_values)
    probe_keys = t_part.column(query.db_join_key)
    predicate = query.post_join_predicate
    if build_index.banded:
        build_idx, probe_idx, join_output_rows = build_index.probe(
            probe_keys,
            band=(t_part.column(band.probe_column), band.low, band.high),
        )
        predicate = band.residual
    else:
        build_idx, probe_idx = build_index.probe(probe_keys)
        join_output_rows = len(build_idx)

    def gathered(names) -> Table:
        return joined_rows(
            l_part, t_part, build_idx, probe_idx,
            query.hdfs_prefix, query.db_prefix, names=names,
        )

    if predicate is not None:
        # A predicate that reads no column still has to see one row per
        # pair; any column carries the count.
        reads = predicate.columns() or (query.prefixed_hdfs_key(),)
        keep = np.flatnonzero(predicate.evaluate(gathered(reads)))
        build_idx = build_idx.take(keep)
        probe_idx = probe_idx.take(keep)
    aggregated = [spec.column for spec in query.aggregates
                  if spec.column is not None]
    partial = group_by_aggregate(
        gathered(list(query.group_by) + aggregated),
        list(query.group_by), list(query.aggregates),
    )
    return partial, join_output_rows


def merge_partials(partials: Sequence[Table], query: HybridQuery) -> Table:
    """Merge per-worker partial aggregates into the final result."""
    return merge_partial_aggregates(
        list(partials), list(query.group_by), list(query.aggregates)
    )


def needed_wire_columns(query: HybridQuery, side: str) -> tuple:
    """Wire columns of one side the post-join pipeline provably needs.

    ``side`` is ``"db"`` or ``"hdfs"``.  The join key is always needed
    (it decides matches); beyond it a projected column is needed only if
    the post-join predicate, the group-by, or an aggregate argument
    references it under this side's prefix.  Late materialization
    (:mod:`repro.latemat`) uses this set to drop provably dead payload
    columns from the deferred fetch: a column nothing downstream reads
    never has to cross the network at all.
    """
    if side == "db":
        prefix = query.db_prefix
        key = query.db_join_key
        projected = tuple(query.db_projection)
    elif side == "hdfs":
        prefix = query.hdfs_prefix
        key = query.hdfs_join_key
        projected = query.hdfs_wire_columns()
    else:
        raise ValueError(f"side must be 'db' or 'hdfs', got {side!r}")
    referenced = set(query.group_by)
    if query.post_join_predicate is not None:
        referenced |= set(query.post_join_predicate.columns())
    for spec in query.aggregates:
        if spec.column is not None:
            referenced.add(spec.column)
    needed = [key]
    for name in projected:
        if name != key and f"{prefix}{name}" in referenced:
            needed.append(name)
    return tuple(needed)


def partial_tables_nonempty(partials: List[Table]) -> List[Table]:
    """Drop empty partials but keep at least one for schema."""
    non_empty = [table for table in partials if table.num_rows]
    return non_empty if non_empty else partials[:1]
