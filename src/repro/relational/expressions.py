"""Predicate expressions evaluated against columnar tables.

The paper's query template (Section 2) needs exactly these shapes:

* local predicates on each table (``T.corPred <= a AND T.indPred <= b``);
* a post-join predicate on a pair of date columns
  (``days(T.tdate) - days(L.ldate) BETWEEN 0 AND 1``);
* UDF predicates (``region(L.ip) = 'East Coast'`` style).

Predicates are a small AST; :meth:`Predicate.evaluate` returns a boolean
mask over a table.  Selectivity bookkeeping lives in
:mod:`repro.query.stats`, not here.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ExpressionError
from repro.relational.table import Table


class CompareOp(enum.Enum):
    """Comparison operators supported by :class:`ColumnPredicate`."""

    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    def apply(self, values: np.ndarray, literal) -> np.ndarray:
        """Evaluate ``values <op> literal`` element-wise."""
        return _COMPARE_UFUNCS[self](values, literal)


_COMPARE_UFUNCS = {
    CompareOp.EQ: np.equal,
    CompareOp.NE: np.not_equal,
    CompareOp.LT: np.less,
    CompareOp.LE: np.less_equal,
    CompareOp.GT: np.greater,
    CompareOp.GE: np.greater_equal,
}


@dataclass(frozen=True)
class Band:
    """An integer band across the two sides of a join.

    A joined row satisfies it iff
    ``low <= probe[probe_column] - build[build_column] <= high``; the
    column names are the sides' own (unprefixed) names.  ``residual``
    is whatever the predicate asks beyond the band (``None`` when
    nothing), to be evaluated on the joined rows the band keeps.
    """

    build_column: str
    probe_column: str
    low: int
    high: int
    residual: Optional["Predicate"] = None


def _join_side(name: str, build_prefix: str, probe_prefix: str
               ) -> Optional[Tuple[str, str]]:
    """``("build"|"probe", unprefixed name)``; ``None`` if ambiguous."""
    on_build = name.startswith(build_prefix)
    on_probe = name.startswith(probe_prefix)
    if on_build == on_probe:
        return None
    if on_build:
        return "build", name[len(build_prefix):]
    return "probe", name[len(probe_prefix):]


class Predicate:
    """Base class for boolean expressions over one table."""

    def evaluate(self, table: Table) -> np.ndarray:
        """Boolean mask of rows satisfying the predicate."""
        raise NotImplementedError

    def columns(self) -> Tuple[str, ...]:
        """Names of the columns the predicate reads."""
        raise NotImplementedError

    def band(self, build_prefix: str, probe_prefix: str
             ) -> Optional[Band]:
        """The integer band this predicate imposes across a join whose
        build and probe columns carry the given prefixes, or ``None``.

        A join can then produce only the pairs inside the band instead
        of filtering every key match (:mod:`repro.kernels.joinindex`).
        """
        return None

    def __and__(self, other: "Predicate") -> "Predicate":
        return Conjunction((self, other))


@dataclass(frozen=True)
class TruePredicate(Predicate):
    """Always true; the identity element for conjunction."""

    def evaluate(self, table: Table) -> np.ndarray:
        return np.ones(table.num_rows, dtype=bool)

    def columns(self) -> Tuple[str, ...]:
        return ()


@dataclass(frozen=True)
class ColumnPredicate(Predicate):
    """``column <op> literal`` over a single column."""

    column: str
    op: CompareOp
    literal: object

    def evaluate(self, table: Table) -> np.ndarray:
        return self.op.apply(table.column(self.column), self.literal)

    def columns(self) -> Tuple[str, ...]:
        return (self.column,)


@dataclass(frozen=True)
class Conjunction(Predicate):
    """Logical AND of child predicates."""

    children: Tuple[Predicate, ...]

    def evaluate(self, table: Table) -> np.ndarray:
        if not self.children:
            return np.ones(table.num_rows, dtype=bool)
        mask = self.children[0].evaluate(table)
        for child in self.children[1:]:
            mask &= child.evaluate(table)
        return mask

    def columns(self) -> Tuple[str, ...]:
        names: Tuple[str, ...] = ()
        for child in self.children:
            names += child.columns()
        return tuple(dict.fromkeys(names))

    def band(self, build_prefix: str, probe_prefix: str
             ) -> Optional[Band]:
        """The first conjunct's band; every other conjunct (and that
        conjunct's own residual) becomes the residual."""
        for position, child in enumerate(self.children):
            band = child.band(build_prefix, probe_prefix)
            if band is None:
                continue
            rest = list(self.children[:position])
            rest += self.children[position + 1:]
            if band.residual is not None:
                rest.append(band.residual)
            residual = conjunction_of(rest)
            return dataclasses.replace(
                band,
                residual=None if isinstance(residual, TruePredicate)
                else residual,
            )
        return None


@dataclass(frozen=True)
class BetweenDayDiff(Predicate):
    """``low <= days(left) - days(right) <= high``.

    This is the paper's post-join predicate: a transaction counts only if
    it happened within one day of the click
    (``days(T.tdate) - days(L.ldate) BETWEEN 0 AND 1``).  Both columns
    must be present in the (joined) table this evaluates against.
    """

    left_column: str
    right_column: str
    low: int = 0
    high: int = 1

    def evaluate(self, table: Table) -> np.ndarray:
        difference = (
            table.column(self.left_column).astype(np.int64)
            - table.column(self.right_column).astype(np.int64)
        )
        return (difference >= self.low) & (difference <= self.high)

    def columns(self) -> Tuple[str, ...]:
        return (self.left_column, self.right_column)

    def band(self, build_prefix: str, probe_prefix: str
             ) -> Optional[Band]:
        """A band when the two columns sit on opposite join sides and
        the bounds are integers; ``left - right`` is turned around to
        ``probe - build`` when the left column is the build side's."""
        if not all(isinstance(bound, (int, np.integer))
                   and not isinstance(bound, bool)
                   for bound in (self.low, self.high)):
            return None
        left = _join_side(self.left_column, build_prefix, probe_prefix)
        right = _join_side(self.right_column, build_prefix, probe_prefix)
        if left is None or right is None or left[0] == right[0]:
            return None
        if left[0] == "probe":
            return Band(right[1], left[1], int(self.low), int(self.high))
        return Band(left[1], right[1], -int(self.high), -int(self.low))


@dataclass(frozen=True)
class InSetPredicate(Predicate):
    """``column IN (v1, v2, ...)`` membership over a literal set."""

    column: str
    values: Tuple

    def evaluate(self, table: Table) -> np.ndarray:
        return np.isin(table.column(self.column), np.asarray(self.values))

    def columns(self) -> Tuple[str, ...]:
        return (self.column,)


@dataclass(frozen=True)
class ColumnPairPredicate(Predicate):
    """``left_column <op> right_column`` — two columns of one table.

    On a joined (prefixed) table this expresses post-join comparisons
    between the two sides, e.g. ``T.price >= L.minPrice``.
    """

    left_column: str
    op: CompareOp
    right_column: str

    def evaluate(self, table: Table) -> np.ndarray:
        return self.op.apply(
            table.column(self.left_column), table.column(self.right_column)
        )

    def columns(self) -> Tuple[str, ...]:
        return (self.left_column, self.right_column)


@dataclass(frozen=True)
class UdfPredicate(Predicate):
    """A named scalar UDF applied to one column, compared for truth.

    Mirrors the paper's ``region(L.ip) = 'East Coast'``: ``function``
    receives the raw column array and returns a boolean mask.  The name is
    carried so plans and traces can display it.
    """

    name: str
    column: str
    function: Callable[[np.ndarray], np.ndarray]

    def evaluate(self, table: Table) -> np.ndarray:
        mask = np.asarray(self.function(table.column(self.column)))
        if mask.dtype != bool or len(mask) != table.num_rows:
            raise ExpressionError(
                f"UDF predicate {self.name!r} must return a boolean mask "
                f"of length {table.num_rows}"
            )
        return mask

    def columns(self) -> Tuple[str, ...]:
        return (self.column,)


def compare(column: str, op: str, literal) -> ColumnPredicate:
    """Convenience constructor: ``compare('corPred', '<=', 17)``."""
    try:
        operator = CompareOp(op)
    except ValueError:
        valid = ", ".join(member.value for member in CompareOp)
        raise ExpressionError(
            f"unknown comparison operator {op!r}; expected one of {valid}"
        ) from None
    return ColumnPredicate(column, operator, literal)


def conjunction_of(predicates: Sequence[Predicate]) -> Predicate:
    """AND together a sequence of predicates (TruePredicate if empty)."""
    predicates = [p for p in predicates if not isinstance(p, TruePredicate)]
    if not predicates:
        return TruePredicate()
    if len(predicates) == 1:
        return predicates[0]
    return Conjunction(tuple(predicates))
