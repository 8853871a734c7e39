"""Columnar in-memory tables backed by numpy arrays.

A :class:`Table` owns one numpy array per column plus, for
dictionary-encoded string columns, a shared dictionary array of distinct
strings.  All engines in the reproduction (database workers, JEN workers,
the reference executor) move these tables around, filter them, join them
and aggregate them, so the operations here are deliberately vectorised.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TableError
from repro.relational.schema import Column, DataType, Schema


class Table:
    """An immutable-by-convention columnar table.

    Parameters
    ----------
    schema:
        Column definitions; order defines row layout for serialization.
    columns:
        Mapping of column name to a numpy array of the backing dtype.
        All arrays must share one length.
    dictionaries:
        For each ``DICT_STRING`` column, the array of distinct string
        values its int32 codes index into.
    """

    def __init__(
        self,
        schema: Schema,
        columns: Mapping[str, np.ndarray],
        dictionaries: Optional[Mapping[str, np.ndarray]] = None,
    ):
        self.schema = schema
        self._columns: Dict[str, np.ndarray] = {}
        self._dictionaries: Dict[str, np.ndarray] = dict(dictionaries or {})

        lengths = set()
        for column in schema:
            if column.name not in columns:
                raise TableError(f"missing data for column {column.name!r}")
            array = np.asarray(columns[column.name])
            expected = column.dtype.numpy_dtype()
            if array.dtype != expected:
                array = array.astype(expected)
            self._columns[column.name] = array
            lengths.add(len(array))
            if column.dtype is DataType.DICT_STRING:
                if column.name not in self._dictionaries:
                    raise TableError(
                        f"dict-string column {column.name!r} has no dictionary"
                    )
        extra = set(columns) - set(schema.names)
        if extra:
            raise TableError(f"data provided for unknown columns: {sorted(extra)}")
        if len(lengths) > 1:
            raise TableError(f"ragged columns: lengths {sorted(lengths)}")
        self._num_rows = lengths.pop() if lengths else 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def _view(
        cls,
        schema: Schema,
        columns: Dict[str, np.ndarray],
        dictionaries: Dict[str, np.ndarray],
    ) -> "Table":
        """Internal constructor for tables derived from a validated table.

        ``take``/``slice``/``project``/``rename`` produce arrays whose
        dtypes and lengths are consistent by construction, so re-running
        the per-column checks of ``__init__`` is pure overhead — and at
        thousands of slices per shuffle it dominated wall-clock
        profiles.  External construction must go through ``__init__``.
        """
        table = cls.__new__(cls)
        table.schema = schema
        table._columns = columns
        table._dictionaries = dictionaries
        first = next(iter(columns.values()), None)
        table._num_rows = len(first) if first is not None else 0
        return table

    @classmethod
    def empty(cls, schema: Schema) -> "Table":
        """A zero-row table with the given schema."""
        columns = {
            column.name: np.empty(0, dtype=column.dtype.numpy_dtype())
            for column in schema
        }
        dictionaries = {
            column.name: np.empty(0, dtype=object)
            for column in schema
            if column.dtype is DataType.DICT_STRING
        }
        return cls(schema, columns, dictionaries)

    @classmethod
    def concat(cls, tables: Sequence["Table"]) -> "Table":
        """Vertically concatenate tables sharing a schema.

        Dictionary-encoded columns must share their dictionary object
        (which they do whenever the parts were split from one table, the
        only case the engines need); otherwise codes would be remapped,
        which this substrate deliberately does not attempt.

        Fast paths keep shuffles cheap: a single input comes back
        unchanged, and when every row lives in one part (the common
        skewed-shuffle case) that part is returned as-is instead of
        being copied.
        """
        if not tables:
            raise TableError("cannot concatenate zero tables")
        if len(tables) == 1:
            return tables[0]
        schema = tables[0].schema
        for table in tables[1:]:
            if table.schema.names != schema.names:
                raise TableError(
                    f"schema mismatch in concat: {table.schema.names} "
                    f"vs {schema.names}"
                )
        non_empty = [table for table in tables if table.num_rows]
        if len(non_empty) == 1:
            return non_empty[0]
        if non_empty and len(non_empty) < len(tables):
            # Empty parts contribute no rows and, being splits of the
            # same source, no dictionary conflicts: drop them before
            # paying for their (empty) array concatenations.
            tables = non_empty
        columns = {
            name: np.concatenate([t.column(name) for t in tables])
            for name in schema.names
        }
        dictionaries: Dict[str, np.ndarray] = {}
        for column in schema:
            if column.dtype is not DataType.DICT_STRING:
                continue
            dicts = [t.dictionary(column.name) for t in tables if t.num_rows]
            if not dicts:
                dicts = [tables[0].dictionary(column.name)]
            first = dicts[0]
            for other in dicts[1:]:
                if other is not first and not np.array_equal(other, first):
                    raise TableError(
                        f"cannot concat {column.name!r}: differing dictionaries"
                    )
            dictionaries[column.name] = first
        return cls(schema, columns, dictionaries)

    @classmethod
    def gather_concat(cls, tables: Sequence["Table"],
                      selections: Sequence[np.ndarray],
                      names: Sequence[str]) -> "Table":
        """Rows ``selections[i]`` of ``tables[i]``, projected to
        ``names``, as one table in input order.

        Equal to ``concat([t.take(s).project(names) ...])`` without
        gathering the dropped columns or building a table per part.
        As in :meth:`concat`, the parts must share their dictionaries.
        """
        if not tables:
            raise TableError("cannot gather from zero tables")
        head = tables[0].project(names)
        for name, dictionary in head._dictionaries.items():
            for table in tables:
                if table._dictionaries[name] is not dictionary:
                    raise TableError(
                        f"cannot gather {name!r}: differing dictionaries"
                    )
        columns = {
            name: np.concatenate([
                table._columns[name].take(selection)
                for table, selection in zip(tables, selections)
            ])
            for name in head.schema.names
        }
        return cls._view(head.schema, columns, head._dictionaries)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Number of rows."""
        return self._num_rows

    def __len__(self) -> int:
        return self._num_rows

    def __repr__(self) -> str:
        return f"Table({self.schema!r}, rows={self._num_rows})"

    def column(self, name: str) -> np.ndarray:
        """The backing array for ``name`` (codes for dict-string columns)."""
        try:
            return self._columns[name]
        except KeyError:
            self.schema.column(name)  # raises the descriptive SchemaError
            raise

    def dictionary(self, name: str) -> np.ndarray:
        """The dictionary array for a dict-string column."""
        column = self.schema.column(name)
        if column.dtype is not DataType.DICT_STRING:
            raise TableError(f"column {name!r} is not dictionary-encoded")
        return self._dictionaries[name]

    def strings(self, name: str) -> np.ndarray:
        """Materialize a dict-string column as actual strings."""
        return self.dictionary(name)[self.column(name)]

    def row_bytes(self, names: Optional[Sequence[str]] = None) -> int:
        """Logical bytes of one (optionally projected) row.

        Dictionary-encoded strings count at their declared varchar
        width here — the classic row-shipping wire serialises decoded
        strings, and the paper's movement accounting assumes it.  Use
        :meth:`wire_row_bytes` for the dictionary-aware width of the
        compact wire.
        """
        return self.schema.row_width(names)

    def total_bytes(self, names: Optional[Sequence[str]] = None) -> int:
        """Logical bytes of the whole (optionally projected) table."""
        return self.row_bytes(names) * self._num_rows

    def wire_row_bytes(self,
                       names: Optional[Sequence[str]] = None) -> float:
        """Dictionary-aware bytes of one row on the compact wire.

        A ``DICT_STRING`` column ships its int32 id array plus the
        dictionary once per transfer, so its per-row price is 4 bytes
        plus the dictionary's total utf-8 string bytes amortised over
        the table's rows — never the decoded varchar width.  Fixed-width
        columns price at their declared width, as in
        :meth:`row_bytes`.
        """
        selected = self.schema.names if names is None else names
        total = 0.0
        for name in selected:
            column = self.schema.column(name)
            if column.dtype is not DataType.DICT_STRING:
                total += column.width()
                continue
            total += DataType.DICT_STRING.numpy_dtype().itemsize
            dictionary = self._dictionaries.get(name)
            if dictionary is not None and self._num_rows > 0:
                dictionary_bytes = sum(
                    len(str(value).encode("utf-8")) for value in dictionary)
                total += dictionary_bytes / self._num_rows
        return total

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def filter(self, mask: np.ndarray) -> "Table":
        """Rows where ``mask`` is true.

        ``mask`` must be boolean: an integer array would silently be
        treated as nonzero-ness (not as row indices), which is never
        what a caller holding indices wants — use :meth:`take` for
        index gathers.
        """
        mask = np.asarray(mask)
        if mask.dtype != np.bool_:
            raise TableError(
                f"filter mask must be boolean, got dtype {mask.dtype}; "
                "use take() for integer row indices"
            )
        if len(mask) != self._num_rows:
            raise TableError(
                f"mask length {len(mask)} != table rows {self._num_rows}"
            )
        return self.take(np.flatnonzero(mask))

    def take(self, indices: np.ndarray) -> "Table":
        """Rows at ``indices`` (gather), preserving dictionaries."""
        columns = {
            name: np.take(arr, indices) for name, arr in self._columns.items()
        }
        return Table._view(self.schema, columns, self._dictionaries)

    def project(self, names: Sequence[str]) -> "Table":
        """Keep only ``names``, in the requested order."""
        schema = self.schema.project(names)
        columns = {name: self._columns[name] for name in schema.names}
        dictionaries = {
            name: self._dictionaries[name]
            for name in schema.names
            if name in self._dictionaries
        }
        return Table._view(schema, columns, dictionaries)

    def rename(self, mapping: Dict[str, str]) -> "Table":
        """Rename columns via ``mapping``."""
        schema = self.schema.rename(mapping)
        columns = {
            mapping.get(name, name): arr for name, arr in self._columns.items()
        }
        dictionaries = {
            mapping.get(name, name): d for name, d in self._dictionaries.items()
        }
        return Table._view(schema, columns, dictionaries)

    def with_column(self, column: Column, values: np.ndarray,
                    dictionary: Optional[np.ndarray] = None) -> "Table":
        """A new table with one extra column appended."""
        schema = self.schema.concat(Schema([column]))
        columns = dict(self._columns)
        columns[column.name] = values
        dictionaries = dict(self._dictionaries)
        if dictionary is not None:
            dictionaries[column.name] = dictionary
        return Table(schema, columns, dictionaries)

    def slice(self, start: int, stop: int) -> "Table":
        """Rows in ``[start, stop)`` as a zero-copy view."""
        columns = {
            name: arr[start:stop] for name, arr in self._columns.items()
        }
        return Table._view(self.schema, columns, self._dictionaries)

    def split(self, parts: int) -> List["Table"]:
        """Split into ``parts`` contiguous, roughly equal row ranges."""
        if parts <= 0:
            raise TableError("parts must be positive")
        boundaries = np.linspace(0, self._num_rows, parts + 1).astype(np.int64)
        return [
            self.slice(int(boundaries[i]), int(boundaries[i + 1]))
            for i in range(parts)
        ]

    def to_rows(self) -> List[Tuple]:
        """Materialize as Python row tuples (tests and tiny results only)."""
        materialized = []
        for column in self.schema:
            if column.dtype is DataType.DICT_STRING:
                materialized.append(self.strings(column.name))
            else:
                materialized.append(self._columns[column.name])
        return list(zip(*[arr.tolist() for arr in materialized])) \
            if materialized else []

    def sorted_by(self, names: Sequence[str]) -> "Table":
        """Rows ordered lexicographically by ``names`` (stable)."""
        if not names:
            return self
        keys = [self._columns[name] for name in reversed(list(names))]
        order = np.lexsort(keys)
        return self.take(order)


def table_from_rows(schema: Schema, rows: Iterable[Tuple],
                    dictionaries: Optional[Mapping[str, np.ndarray]] = None
                    ) -> Table:
    """Build a table from Python row tuples (test convenience).

    Dict-string columns accept raw strings; a dictionary is derived unless
    one is supplied.
    """
    rows = list(rows)
    columns: Dict[str, np.ndarray] = {}
    dicts: Dict[str, np.ndarray] = dict(dictionaries or {})
    for position, column in enumerate(schema):
        values = [row[position] for row in rows]
        if column.dtype is DataType.DICT_STRING:
            if column.name in dicts:
                dictionary = dicts[column.name]
                lookup = {value: code for code, value in enumerate(dictionary)}
                codes = np.array([lookup[v] for v in values], dtype=np.int32)
            else:
                dictionary, codes = np.unique(
                    np.asarray(values, dtype=object), return_inverse=True
                )
                codes = codes.astype(np.int32)
                dicts[column.name] = dictionary
            columns[column.name] = codes
        else:
            columns[column.name] = np.asarray(
                values, dtype=column.dtype.numpy_dtype()
            )
    return Table(schema, columns, dicts)
