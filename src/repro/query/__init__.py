"""Logical query layer: the paper's query template and shared plan steps.

All five join algorithms execute the same logical query — local
predicates on both tables, projections, an equi-join, a post-join
predicate and a group-by aggregation (paper Section 2).  This package
defines that query shape (:class:`~repro.query.query.HybridQuery`), the
local plan steps every worker shares (:mod:`repro.query.plan`) and
selectivity measurement (:mod:`repro.query.stats`).  The single-node
ground truth lives apart from the engines, in
:mod:`repro.testkit.oracle`.
"""

from repro.query.query import DerivedColumn, HybridQuery
from repro.query.plan import (
    join_aggregate,
    merge_partials,
)
from repro.query.stats import SelectivityReport, measure_selectivities

__all__ = [
    "DerivedColumn",
    "HybridQuery",
    "SelectivityReport",
    "join_aggregate",
    "measure_selectivities",
    "merge_partials",
]
