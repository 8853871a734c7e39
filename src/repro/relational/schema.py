"""Schemas for the columnar tables used throughout the reproduction.

A :class:`Schema` is an ordered collection of typed :class:`Column`
definitions.  Column byte widths matter here more than in a typical
in-memory engine: the paper's join algorithms are dominated by *data
movement*, so every transfer in the time plane is priced from the widths
declared in the schema (e.g. the projected click-log record that gets
shuffled between JEN workers is `joinKey + predAfterJoin +
groupByExtractCol`, about 54 bytes).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SchemaError


class DataType(enum.Enum):
    """Supported column data types.

    ``DICT_STRING`` is a dictionary-encoded string column: the data array
    holds int32 codes into a per-column dictionary of distinct strings.
    This mirrors how Parquet stores low-cardinality varchar columns and
    keeps the data plane fast, while the declared byte width still reflects
    the logical varchar size for movement accounting.
    """

    INT32 = "int32"
    INT64 = "int64"
    FLOAT64 = "float64"
    DATE = "date"  # stored as int32 day numbers
    DICT_STRING = "dict_string"

    def numpy_dtype(self) -> np.dtype:
        """The numpy dtype backing this logical type's data array."""
        return _NUMPY_DTYPES[self]

    def default_width(self) -> int:
        """Default logical byte width used for movement accounting."""
        return _DEFAULT_WIDTHS[self]


# Built once: numpy_dtype() is called for every column of every table
# construction, so rebuilding these mappings per call showed up in the
# wall-clock profiles.
_NUMPY_DTYPES = {
    DataType.INT32: np.dtype(np.int32),
    DataType.INT64: np.dtype(np.int64),
    DataType.FLOAT64: np.dtype(np.float64),
    DataType.DATE: np.dtype(np.int32),
    DataType.DICT_STRING: np.dtype(np.int32),
}
_DEFAULT_WIDTHS = {
    DataType.INT32: 4,
    DataType.INT64: 8,
    DataType.FLOAT64: 8,
    DataType.DATE: 4,
    DataType.DICT_STRING: 16,
}


@dataclass(frozen=True)
class Column:
    """A named, typed column with a logical byte width.

    ``width_bytes`` is the average serialized width of one value; for
    fixed-width types it defaults to the storage width, for strings it
    should be set to the average varchar length (the paper's
    ``groupByExtractCol`` is ``varchar(46)``).
    """

    name: str
    dtype: DataType
    width_bytes: Optional[int] = None

    def width(self) -> int:
        """Logical width of one value in bytes."""
        if self.width_bytes is not None:
            return self.width_bytes
        return self.dtype.default_width()


class Schema:
    """An ordered, name-addressable collection of columns."""

    def __init__(self, columns: Iterable[Column]):
        self._columns: List[Column] = list(columns)
        self._by_name: Dict[str, Column] = {}
        for column in self._columns:
            if column.name in self._by_name:
                raise SchemaError(f"duplicate column name: {column.name!r}")
            self._by_name[column.name] = column
        # names are asked for on every projection, shuffle and
        # serialization step; schemas are immutable, so compute once.
        self._names: Tuple[str, ...] = tuple(
            column.name for column in self._columns
        )

    def __iter__(self) -> Iterator[Column]:
        return iter(self._columns)

    def __len__(self) -> int:
        return len(self._columns)

    def __repr__(self) -> str:
        cols = ", ".join(f"{c.name}:{c.dtype.value}" for c in self._columns)
        return f"Schema({cols})"

    @property
    def names(self) -> Tuple[str, ...]:
        """Column names in declaration order."""
        return self._names

    def column(self, name: str) -> Column:
        """Look up a column by name, raising :class:`SchemaError` if absent."""
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(
                f"unknown column {name!r}; have {list(self.names)}"
            ) from None

    def has_column(self, name: str) -> bool:
        """True if the schema contains ``name``."""
        return name in self._by_name

    def project(self, names: Sequence[str]) -> "Schema":
        """A new schema with only ``names``, in the requested order."""
        return Schema([self.column(name) for name in names])

    def rename(self, mapping: Dict[str, str]) -> "Schema":
        """A new schema with columns renamed via ``mapping``."""
        renamed = []
        for column in self._columns:
            new_name = mapping.get(column.name, column.name)
            renamed.append(Column(new_name, column.dtype, column.width_bytes))
        return Schema(renamed)

    def concat(self, other: "Schema") -> "Schema":
        """Schema of this table's columns followed by ``other``'s."""
        return Schema(list(self._columns) + list(other))

    def row_width(self, names: Optional[Sequence[str]] = None) -> int:
        """Logical width in bytes of one row, optionally projected."""
        columns = self._columns if names is None else [
            self.column(name) for name in names
        ]
        return sum(column.width() for column in columns)
