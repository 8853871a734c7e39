"""Single-node columnar relational kernel.

This subpackage is the substrate every engine in the reproduction builds
on: the parallel database workers (:mod:`repro.edw`), the JEN workers
(:mod:`repro.jen`) and the single-node oracle used by the tests
(:mod:`repro.testkit.oracle`) all operate on the same
:class:`~repro.relational.table.Table` representation; the engines also
share the operator and aggregation implementations here.
"""

from repro.relational.schema import Column, DataType, Schema
from repro.relational.table import Table
from repro.relational.expressions import (
    BetweenDayDiff,
    ColumnPredicate,
    CompareOp,
    Conjunction,
    Predicate,
    TruePredicate,
    UdfPredicate,
    compare,
)
from repro.relational.aggregates import AggregateSpec, group_by_aggregate

__all__ = [
    "AggregateSpec",
    "BetweenDayDiff",
    "Column",
    "ColumnPredicate",
    "CompareOp",
    "Conjunction",
    "DataType",
    "Predicate",
    "Schema",
    "Table",
    "TruePredicate",
    "UdfPredicate",
    "compare",
    "group_by_aggregate",
]
