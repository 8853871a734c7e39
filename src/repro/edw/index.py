"""Secondary indexes on database worker partitions.

The paper builds two indexes on the transaction table: one on
``(corPred, indPred)`` to evaluate local predicates, and one on
``(corPred, indPred, joinKey)`` that makes the Bloom-filter build an
*index-only* plan — and makes the zigzag join's second table access
cheap, which is central to why two-way Bloom filters pay off in the
hybrid warehouse but not in a homogeneous one (Section 3.4).

The index is a real data structure (sorted projection with binary
search), not a cost-model flag: a lookup returns a materialised
column's entries without touching the base table, and :attr:`covers`
reports whether a requested column list can be answered index-only.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CatalogError
from repro.relational.expressions import (
    ColumnPredicate,
    CompareOp,
    Conjunction,
    Predicate,
    TruePredicate,
)
from repro.relational.table import Table


class SecondaryIndex:
    """A covering index over one worker's partition."""

    def __init__(self, name: str, table: Table, key_columns: Sequence[str]):
        if not key_columns:
            raise CatalogError(f"index {name!r} needs at least one column")
        for column in key_columns:
            table.schema.column(column)
        self.name = name
        self.key_columns: Tuple[str, ...] = tuple(key_columns)
        # Sort row ids by the leading key column; the entries arrays are
        # the index's leaf pages.
        leading = table.column(self.key_columns[0])
        order = np.argsort(leading, kind="stable")
        self._leading_sorted = leading[order]
        self._entries: Dict[str, np.ndarray] = {
            column: table.column(column)[order]
            for column in self.key_columns
        }
        self.num_entries = table.num_rows

    def covers(self, columns: Sequence[str]) -> bool:
        """True if all ``columns`` are materialised in the index."""
        return set(columns) <= set(self.key_columns)

    def evaluates(self, predicate: Optional[Predicate]) -> bool:
        """True if the index alone can evaluate ``predicate``: every
        conjunct compares a materialised column with a literal, the
        rule :meth:`lookup` enforces."""
        return self._unanswerable(_conjuncts(predicate)) is None

    def _unanswerable(self, conjuncts) -> Optional[str]:
        """Why the index cannot evaluate ``conjuncts`` alone (``None``
        when it can)."""
        for conjunct in conjuncts:
            if not isinstance(conjunct, ColumnPredicate):
                return f"index {self.name!r} cannot evaluate {conjunct!r}"
            if conjunct.column not in self.key_columns:
                return (f"index {self.name!r} does not cover column "
                        f"{conjunct.column!r}")
        return None

    # ------------------------------------------------------------------
    def lookup(self, predicate: Optional[Predicate],
               column: str) -> np.ndarray:
        """``column``'s entries for the rows satisfying ``predicate``,
        in index order — an index-only fetch.

        Uses a range scan on the leading column when the predicate allows
        it, then filters the remaining conjuncts against the index
        entries; a column the index does not materialise, or a conjunct
        it cannot evaluate alone, raises.
        """
        if column not in self.key_columns:
            raise CatalogError(
                f"index {self.name!r} does not materialise {column!r}"
            )
        conjuncts = _conjuncts(predicate)
        reason = self._unanswerable(conjuncts)
        if reason is not None:
            raise CatalogError(reason)
        lo, hi = self._leading_range(conjuncts)
        mask = np.ones(hi - lo, dtype=bool)
        for conjunct in conjuncts:
            values = self._entries[conjunct.column][lo:hi]
            mask &= conjunct.op.apply(values, conjunct.literal)
        return self._entries[column][lo:hi][mask]

    def _leading_range(self, conjuncts) -> Tuple[int, int]:
        lo, hi = 0, self.num_entries
        leading = self.key_columns[0]
        for conjunct in conjuncts:
            if conjunct.column != leading:
                continue
            literal = conjunct.literal
            if conjunct.op in (CompareOp.LE,):
                hi = min(hi, int(np.searchsorted(
                    self._leading_sorted, literal, side="right")))
            elif conjunct.op in (CompareOp.LT,):
                hi = min(hi, int(np.searchsorted(
                    self._leading_sorted, literal, side="left")))
            elif conjunct.op in (CompareOp.GE,):
                lo = max(lo, int(np.searchsorted(
                    self._leading_sorted, literal, side="left")))
            elif conjunct.op in (CompareOp.GT,):
                lo = max(lo, int(np.searchsorted(
                    self._leading_sorted, literal, side="right")))
            elif conjunct.op is CompareOp.EQ:
                lo = max(lo, int(np.searchsorted(
                    self._leading_sorted, literal, side="left")))
                hi = min(hi, int(np.searchsorted(
                    self._leading_sorted, literal, side="right")))
        return lo, max(lo, hi)


def _conjuncts(predicate: Optional[Predicate]):
    """``predicate``'s conjuncts; none for no predicate or ``TRUE``."""
    if predicate is None or isinstance(predicate, TruePredicate):
        return []
    return _flatten_conjuncts(predicate)


def _flatten_conjuncts(predicate: Predicate):
    if isinstance(predicate, Conjunction):
        flattened = []
        for child in predicate.children:
            flattened.extend(_flatten_conjuncts(child))
        return flattened
    return [predicate]
