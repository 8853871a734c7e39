"""Single-node reference execution.

:func:`reference_join` runs the hybrid query on two plain tables with no
distribution, no Bloom filters and no network — the semantic ground
truth every distributed algorithm must match.  The property-based tests
assert exactly this equivalence, which is also why Bloom-filter false
positives are harmless: they only let extra rows *reach* the join, never
change its result.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.relational.table import Table
from repro.query.plan import (
    apply_derivations,
    local_join,
    local_partial_aggregate,
)
from repro.query.query import HybridQuery


def reference_join(t_table: Table, l_table: Table, query: HybridQuery
                   ) -> Table:
    """Execute ``query`` over unpartitioned tables, returning the result.

    Result rows are ordered by ascending group key (the aggregation
    operator's deterministic order), so results from different executors
    can be compared directly.
    """
    t_filtered = t_table.filter(query.db_predicate.evaluate(t_table))
    t_projected = t_filtered.project(list(query.db_projection))

    l_filtered = l_table.filter(query.hdfs_predicate.evaluate(l_table))
    l_projected = l_filtered.project(list(query.hdfs_projection))
    l_projected = apply_derivations(l_projected, query)
    l_wire = l_projected.project(list(query.hdfs_wire_columns()))

    joined = local_join(t_projected, l_wire, query)
    return local_partial_aggregate(joined, query)


def reference_aggregate_cells(t_table: Table, l_table: Table,
                              query: HybridQuery) -> Dict[Tuple, object]:
    """The reference answer as a ``(group, aggregate) -> value`` map.

    Same cell shape as :func:`repro.testkit.oracle.
    oracle_aggregate_cells` but computed through the engines' shared
    plan steps — what the approximate tier's benchmark gates check
    interval containment against without importing the testkit.
    """
    result = reference_join(t_table, l_table, query)
    n_groups = len(query.group_by)
    names = [spec.output_name() for spec in query.aggregates]
    cells: Dict[Tuple, object] = {}
    for row in result.to_rows():
        key = row[:n_groups]
        for name, value in zip(names, row[n_groups:]):
            cells[(key, name)] = value
    return cells
