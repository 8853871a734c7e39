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

The engines run the three steps fused and for every worker at once
(:func:`join_aggregate`): one build, one probe and one group-by over
all units, merged over units exactly as per-worker partials would be.
No joined row is ever materialised.  The L side is the hash-table
(build) side, as in JEN: the filtered HDFS data is already streaming in
while the database data arrives later, so JEN builds on L'' and probes
with the database rows (paper Section 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels.joinindex import JoinBuildIndex, fits_band
from repro.relational.aggregates import (
    group_by_aggregate,
    merge_partial_aggregates,
    merge_specs,
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


@dataclass(frozen=True)
class StackedUnits:
    """The units of one local join, stacked for one build and one probe.

    A unit is one ``(probe part, build part)`` pair: a worker's rows, a
    spill fragment, a stolen fragment, a sampled block.  A part that
    several units share (a broadcast side) is stacked once.
    """

    #: The distinct build parts, concatenated.
    build: Table
    #: The distinct probe parts, concatenated.
    probe: Table
    #: Row bounds of the distinct build parts — the index's slots —
    #: or ``None`` when there is one.
    slot_bounds: Optional[np.ndarray]
    #: The probe *view* is every unit's probe rows in unit order.  Each
    #: view row's slot (``None`` with one slot) ...
    probe_slots: Optional[np.ndarray]
    #: ... and its row of ``probe`` (``None`` when the view is
    #: ``probe`` itself, i.e. no probe part is shared).
    probe_rows: Optional[np.ndarray]
    #: View row bounds of each unit.
    unit_bounds: np.ndarray

    @classmethod
    def stack(cls, units: Sequence[Tuple[Table, Table]]) -> "StackedUnits":
        """Stack ``(t_part, l_part)`` units (at least one)."""
        if not units:
            raise ValueError("a join needs at least one unit")
        build, slot_bounds, unit_slots = _stack([l for _t, l in units])
        probe, part_bounds, unit_parts = _stack([t for t, _l in units])
        sizes = np.diff(part_bounds).take(unit_parts)
        unit_bounds = np.zeros(len(units) + 1, dtype=np.int64)
        np.cumsum(sizes, out=unit_bounds[1:])
        probe_rows = None
        if len(part_bounds) - 1 < len(units):
            probe_rows = np.concatenate([
                np.arange(part_bounds[part], part_bounds[part + 1])
                for part in unit_parts])
        if len(slot_bounds) <= 2:
            return cls(build, probe, None, None, probe_rows, unit_bounds)
        probe_slots = np.repeat(np.asarray(unit_slots, dtype=np.int64),
                                sizes)
        return cls(build, probe, slot_bounds, probe_slots, probe_rows,
                   unit_bounds)

    @property
    def num_units(self) -> int:
        """Number of units stacked."""
        return len(self.unit_bounds) - 1

    def probe_column(self, name: str) -> np.ndarray:
        """One probe column over the probe view."""
        column = self.probe.column(name)
        return column if self.probe_rows is None \
            else column.take(self.probe_rows)

    def probe_index(self, positions: np.ndarray) -> np.ndarray:
        """Rows of ``probe`` at probe-view positions."""
        return positions if self.probe_rows is None \
            else self.probe_rows.take(positions)

    def pair_bounds(self, positions: np.ndarray) -> np.ndarray:
        """Each unit's bounds in a run of pairs ordered by probe-view
        position (every probe is probe-major)."""
        return np.searchsorted(positions, self.unit_bounds)

    def pair_units(self, positions: np.ndarray) -> Optional[np.ndarray]:
        """Each pair's unit, or ``None`` for a single unit."""
        if self.num_units == 1:
            return None
        return np.repeat(np.arange(self.num_units, dtype=np.int64),
                         np.diff(self.pair_bounds(positions)))


def _stack(parts: Sequence[Table]) -> Tuple[Table, np.ndarray, List[int]]:
    """The distinct parts (by identity) concatenated, their row bounds,
    and each part's index among them."""
    seen: Dict[int, int] = {}
    distinct: List[Table] = []
    which: List[int] = []
    for part in parts:
        index = seen.setdefault(id(part), len(distinct))
        if index == len(distinct):
            distinct.append(part)
        which.append(index)
    bounds = np.zeros(len(distinct) + 1, dtype=np.int64)
    np.cumsum([part.num_rows for part in distinct], out=bounds[1:])
    return Table.concat(distinct), bounds, which


#: Most distinct build rows one slot-keyed index covers.  Units join in
#: consecutive groups of at most this many (a larger unit is a group of
#: its own), so the index's packed int64 words, and the probe's and the
#: group-by's temporaries with them, stay near 1 MB: arrays of a few MB
#: allocated and freed once per query fault in fresh pages on every
#: use.  Measured in place on ``shuffle_repartition`` (seed 42, 600 k
#: build rows in 30 units, 2-core host), ``Jen.join_and_aggregate``
#: per op: one index over all rows 28.7–32.7 ms with 2 300–3 400 minor
#: faults; groups of 2**15, 2**16, 2**17 and 2**18 rows 25.8, 23.2,
#: 19.2–23.3 and 21.6 ms with none; the per-worker loop this replaced
#: 28.8–29.0 ms.  A warm loop over one op's inputs hides the faults
#: (20.7 ms for one index, 17.4 ms in 2**17 groups).
GROUP_BUILD_ROWS = 1 << 17


def join_aggregate(
    units: Sequence[Tuple[Table, Table]], query: HybridQuery,
    index_for: Callable[..., JoinBuildIndex] = JoinBuildIndex,
) -> Tuple[Table, int]:
    """Join, post-join predicate and group-by of every unit of one
    local join, without ever materialising a joined row (paper Section
    4.4: the partial aggregates are computed during the probe).

    ``units`` are ``(t_part, l_part)`` pairs — probe side, build side.
    They run as one join (as a few, past :data:`GROUP_BUILD_ROWS`): one
    :class:`JoinBuildIndex` whose slots are the distinct build parts
    (:class:`StackedUnits`), one probe, one predicate over the pairs,
    one group-by over (unit, group) and its merge over units.  The
    result is therefore exactly :func:`merge_partials` of every unit's
    own partial, and with one unit it *is* that partial.  Returns it
    and the number of pairs *before* the predicate, i.e. the join's
    output cardinality.  AVG cannot merge, so with more than one unit
    it raises before any row is looked at.

    The probe yields ``(build, probe)`` index pairs.  When the post-join
    predicate carries an integer band (:func:`join_band`) and the build
    index could pack it, the probe yields only the pairs inside the
    band and the predicate's residual, if any, sees those.  Otherwise
    the predicate sees every key match, through only the columns it
    reads, and the pairs it rejects are dropped.  The group-by sees
    only its own and the aggregates' columns, gathered at the
    survivors.

    ``index_for(build_keys, band_values, slot_bounds)`` supplies each
    group's index (a caching provider may return one built before).
    """
    if len(units) > 1:
        merge_specs(query.aggregates)
    partials, join_output_rows = [], 0
    for group in _bounded_groups(units):
        partial, pairs = _join_group(group, query, index_for)
        partials.append(partial)
        join_output_rows += pairs
    if len(partials) > 1:
        return merge_partials(partials, query), join_output_rows
    return partials[0], join_output_rows


def joined_unit_rows(units: Sequence[Tuple[Table, Table]], probe_key: str,
                     build_key: str, names: Sequence[str]) -> List[Table]:
    """Each unit's equi-joined rows (columns ``names`` of the build
    then the probe side), from one slot-keyed build and probe per group
    of at most :data:`GROUP_BUILD_ROWS` build rows, as
    :func:`join_aggregate` joins them; ``units`` are ``(probe part,
    build part)`` pairs."""
    parts: List[Table] = []
    for group in _bounded_groups(units):
        stacked = StackedUnits.stack(group)
        build_idx, positions = JoinBuildIndex(
            stacked.build.column(build_key),
            slot_bounds=stacked.slot_bounds,
        ).probe(stacked.probe_column(probe_key), slots=stacked.probe_slots)
        joined = joined_rows(stacked.build, stacked.probe, build_idx,
                             stacked.probe_index(positions), names=names)
        bounds = stacked.pair_bounds(positions).tolist()
        parts.extend(joined.slice(start, end)
                     for start, end in zip(bounds, bounds[1:]))
    return parts


def _bounded_groups(units: Sequence[Tuple[Table, Table]]
                    ) -> List[List[Tuple[Table, Table]]]:
    """Consecutive runs of units with at most
    :data:`GROUP_BUILD_ROWS` distinct build rows each.  A build part
    already in the run adds no rows, so units sharing one build side
    (a broadcast) stay one run however large it is."""
    groups: List[List[Tuple[Table, Table]]] = [[]]
    rows, seen = 0, set()
    for unit in units:
        build = unit[1]
        extra = 0 if id(build) in seen else build.num_rows
        if groups[-1] and extra and rows + extra > GROUP_BUILD_ROWS:
            groups.append([])
            rows, seen, extra = 0, set(), build.num_rows
        groups[-1].append(unit)
        seen.add(id(build))
        rows += extra
    return groups


def _join_group(units: Sequence[Tuple[Table, Table]], query: HybridQuery,
                index_for: Callable[..., JoinBuildIndex]
                ) -> Tuple[Table, int]:
    """:func:`join_aggregate` of one group of units."""
    stacked = StackedUnits.stack(units)
    build, probe = stacked.build, stacked.probe
    band = join_band(probe, build, query)
    index = index_for(
        build.column(query.hdfs_join_key),
        None if band is None else build.column(band.build_column),
        stacked.slot_bounds)
    probe_keys = stacked.probe_column(query.db_join_key)
    predicate = query.post_join_predicate
    grouped = list(query.group_by) + [
        spec.column for spec in query.aggregates if spec.column is not None]
    if index.banded:
        build_idx, positions, join_output_rows = index.probe(
            probe_keys,
            band=(stacked.probe_column(band.probe_column), band.low,
                  band.high),
            slots=stacked.probe_slots,
            ordered=_pair_order_matters(build, probe, query, grouped),
        )
        predicate = band.residual
    else:
        build_idx, positions = index.probe(probe_keys,
                                           slots=stacked.probe_slots)
        join_output_rows = len(build_idx)
    probe_idx = stacked.probe_index(positions)

    def gathered(names) -> Table:
        return joined_rows(
            build, probe, build_idx, probe_idx,
            query.hdfs_prefix, query.db_prefix, names=names,
        )

    if predicate is not None:
        # A predicate that reads no column still has to see one row per
        # pair; any column carries the count.
        reads = predicate.columns() or (query.prefixed_hdfs_key(),)
        keep = np.flatnonzero(predicate.evaluate(gathered(reads)))
        build_idx = build_idx.take(keep)
        probe_idx = probe_idx.take(keep)
        positions = positions.take(keep)
    result = group_by_aggregate(
        gathered(grouped), list(query.group_by), list(query.aggregates),
        units=stacked.pair_units(positions),
    )
    return result, join_output_rows


def _pair_order_matters(build: Table, probe: Table, query: HybridQuery,
                        names: Sequence[str]) -> bool:
    """Whether the group-by's result depends on the order of one probe
    row's pairs, so the band probe must restore build order: only with
    an AVG or a float column (a float SUM is summed in pair order; a
    float group key keeps its first spelling).  COUNT and integer SUM,
    MIN and MAX come out the same in any order."""
    if any(spec.function == "avg" for spec in query.aggregates):
        return True
    for side, prefix in ((build, query.hdfs_prefix),
                         (probe, query.db_prefix)):
        for name in side.schema.names:
            if f"{prefix}{name}" in names \
                    and side.column(name).dtype.kind == "f":
                return True
    return False


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
