"""The hybrid query template (paper Section 2).

A :class:`HybridQuery` captures exactly the query shape the paper
studies::

    SELECT g(L.cols), agg(...)
    FROM T, L
    WHERE <local predicates on T>
      AND <local predicates on L>
      AND T.joinKey = L.joinKey
      AND <post-join predicate over both sides>
    GROUP BY g(L.cols)

Join outputs prefix the two sides (``t_``/``l_`` by default) because the
paper's schemas share column names; the post-join predicate, group-by
columns and aggregates are expressed over the prefixed joined schema.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from repro.errors import ExpressionError
from repro.relational.aggregates import AggregateSpec
from repro.relational.expressions import Predicate, TruePredicate
from repro.relational.schema import Column, DataType
from repro.relational.table import Table


@dataclass(frozen=True)
class DerivedColumn:
    """A scalar-UDF column computed during the HDFS scan.

    Reproduces the paper's ``extract_group(L.groupByExtractCol)``: JEN's
    process thread derives the grouping value while records stream past.
    For dictionary-encoded sources the UDF is applied to the (small)
    dictionary, not per row.

    ``function`` maps one string to one string.
    """

    name: str
    source: str
    udf_name: str
    function: Callable[[str], str]
    width_bytes: int = 24

    def apply(self, table: Table) -> Table:
        """Return ``table`` with the derived column appended.

        The UDF sweep over the dictionary is memoised on dictionary
        *identity*: every block scanned from one HDFS table shares the
        same dictionary object, so a 240-block scan runs the UDF once
        instead of 240 times.  The cached tuple keeps a strong reference
        to the source dictionary, which keeps the ``is`` check sound; a
        table with a different dictionary object re-runs the sweep.
        """
        source_column = table.schema.column(self.source)
        if source_column.dtype is not DataType.DICT_STRING:
            raise ExpressionError(
                f"derived column {self.name!r} requires a dict-string "
                f"source, got {source_column.dtype}"
            )
        dictionary = table.dictionary(self.source)
        cached = self.__dict__.get("_apply_cache")
        if cached is None or cached[0] is not dictionary:
            derived_values = np.array(
                [self.function(value) for value in dictionary], dtype=object
            )
            new_dictionary, remap = np.unique(
                derived_values, return_inverse=True
            )
            cached = (dictionary, new_dictionary, remap.astype(np.int32))
            object.__setattr__(self, "_apply_cache", cached)
        _, new_dictionary, remap = cached
        codes = remap[table.column(self.source)]
        column = Column(self.name, DataType.DICT_STRING, self.width_bytes)
        return table.with_column(column, codes, dictionary=new_dictionary)


@dataclass(frozen=True)
class HybridQuery:
    """One hybrid-warehouse query in the paper's template."""

    db_table: str
    hdfs_table: str
    db_join_key: str
    hdfs_join_key: str
    db_projection: Tuple[str, ...]
    hdfs_projection: Tuple[str, ...]
    db_predicate: Predicate = field(default_factory=TruePredicate)
    hdfs_predicate: Predicate = field(default_factory=TruePredicate)
    hdfs_derived: Tuple[DerivedColumn, ...] = ()
    post_join_predicate: Optional[Predicate] = None
    group_by: Tuple[str, ...] = ()
    aggregates: Tuple[AggregateSpec, ...] = (AggregateSpec("count"),)
    db_prefix: str = "t_"
    hdfs_prefix: str = "l_"

    def __post_init__(self):
        if self.db_join_key not in self.db_projection:
            raise ExpressionError(
                "db_projection must include the join key "
                f"{self.db_join_key!r}"
            )
        if self.hdfs_join_key not in self.hdfs_projection:
            raise ExpressionError(
                "hdfs_projection must include the join key "
                f"{self.hdfs_join_key!r}"
            )
        if not self.group_by:
            raise ExpressionError(
                "the paper's query template always groups and aggregates; "
                "group_by must not be empty"
            )
        if self.db_prefix == self.hdfs_prefix:
            raise ExpressionError("the two side prefixes must differ")

    # ------------------------------------------------------------------
    def prefixed_db_key(self) -> str:
        """Join-key column name on the joined (prefixed) schema, T side."""
        return f"{self.db_prefix}{self.db_join_key}"

    def prefixed_hdfs_key(self) -> str:
        """Join-key column name on the joined (prefixed) schema, L side."""
        return f"{self.hdfs_prefix}{self.hdfs_join_key}"

    def derived_names(self) -> Tuple[str, ...]:
        """Names of the scan-time derived columns."""
        return tuple(derived.name for derived in self.hdfs_derived)

    def hdfs_wire_columns(self) -> Tuple[str, ...]:
        """Columns of the filtered HDFS table that travel the network.

        The projection plus scan-time derived columns, *minus* source
        columns that exist only to feed a derivation: once JEN's process
        thread has computed ``urlPrefix``, the wide source varchar never
        hits a send buffer (the paper's ``read_hdfs`` returns
        ``url_prefix``, not the raw column).
        """
        consumed_sources = set()
        for derived in self.hdfs_derived:
            prefixed = f"{self.hdfs_prefix}{derived.source}"
            needed_later = prefixed in self.group_by
            if self.post_join_predicate is not None:
                needed_later |= prefixed in self.post_join_predicate.columns()
            if not needed_later:
                consumed_sources.add(derived.source)
        kept = tuple(
            name for name in self.hdfs_projection
            if name not in consumed_sources
        )
        return kept + self.derived_names()
