"""Logical query layer: the paper's query template and shared plan steps.

All five join algorithms execute the same logical query — local
predicates on both tables, projections, an equi-join, a post-join
predicate and a group-by aggregation (paper Section 2).  This package
defines that query shape (:class:`~repro.query.query.HybridQuery`), the
local plan steps every worker shares (:mod:`repro.query.plan`),
selectivity measurement (:mod:`repro.query.stats`) and the single-node
reference executor used as ground truth (:mod:`repro.query.executor`).
"""

from repro.query.query import DerivedColumn, HybridQuery
from repro.query.plan import (
    apply_derivations,
    join_partial_aggregate,
    local_join,
    local_partial_aggregate,
    merge_partials,
)
from repro.query.stats import SelectivityReport, measure_selectivities
from repro.query.executor import reference_join

__all__ = [
    "DerivedColumn",
    "HybridQuery",
    "SelectivityReport",
    "apply_derivations",
    "join_partial_aggregate",
    "local_join",
    "local_partial_aggregate",
    "measure_selectivities",
    "merge_partials",
    "reference_join",
]
