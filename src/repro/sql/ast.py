"""Abstract syntax tree for the SQL dialect."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class ColumnRef:
    """``table.column`` or a bare ``column`` (resolved by the binder)."""

    table: Optional[str]
    column: str

    def display(self) -> str:
        """Source-style rendering."""
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(frozen=True)
class Literal:
    """A number or string constant."""

    value: object


@dataclass(frozen=True)
class FuncCall:
    """A scalar UDF application, e.g. ``extract_group(L.col)``."""

    name: str
    argument: "Expression"

    def display(self) -> str:
        """Source-style rendering."""
        inner = (self.argument.display()
                 if hasattr(self.argument, "display")
                 else repr(self.argument))
        return f"{self.name}({inner})"


@dataclass(frozen=True)
class BinaryOp:
    """An arithmetic expression, currently ``-`` and ``+``."""

    op: str
    left: "Expression"
    right: "Expression"


#: Anything usable as a comparison operand.
Expression = object


@dataclass(frozen=True)
class InList:
    """``expr IN (literal, ...)`` in the WHERE clause."""

    expression: "Expression"
    values: Tuple


@dataclass(frozen=True)
class Comparison:
    """``left <op> right`` in the WHERE clause."""

    op: str
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Aggregate:
    """``COUNT(*)`` / ``SUM(col)`` / ... in the select list."""

    function: str
    argument: Optional[Expression]
    alias: Optional[str] = None


@dataclass(frozen=True)
class SelectItem:
    """One select-list entry: grouping expression or aggregate."""

    expression: Expression
    alias: Optional[str] = None


@dataclass(frozen=True)
class TableRef:
    """A FROM-clause table with an optional alias."""

    name: str
    alias: Optional[str] = None

    def binding_name(self) -> str:
        """The name columns are qualified with."""
        return self.alias or self.name


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY entry."""

    expression: Expression
    descending: bool = False


@dataclass(frozen=True)
class SelectStatement:
    """A parsed query in the paper's template."""

    select_items: Tuple[SelectItem, ...]
    tables: Tuple[TableRef, ...]
    where: Tuple[Comparison, ...]
    group_by: Tuple[Expression, ...]
    order_by: Tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
