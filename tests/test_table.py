"""Unit tests for repro.relational.table."""

import numpy as np
import pytest

from repro.errors import TableError
from repro.relational.schema import Column, DataType, Schema
from repro.relational.table import Table, table_from_rows
from tests.conftest import split_table


def make_dict_table():
    schema = Schema([
        Column("k", DataType.INT32),
        Column("url", DataType.DICT_STRING, width_bytes=20),
    ])
    dictionary = np.array(["a.com", "b.com", "c.com"], dtype=object)
    return Table(
        schema,
        {"k": np.array([1, 2, 3, 1]), "url": np.array([0, 2, 1, 0])},
        {"url": dictionary},
    )


class TestConstruction:
    def test_basic(self, small_table):
        assert small_table.num_rows == 5

    def test_missing_column_data(self):
        schema = Schema([Column("a", DataType.INT32)])
        with pytest.raises(TableError, match="missing data"):
            Table(schema, {})

    def test_extra_column_data_rejected(self):
        schema = Schema([Column("a", DataType.INT32)])
        with pytest.raises(TableError, match="unknown columns"):
            Table(schema, {"a": np.array([1]), "b": np.array([2])})

    def test_ragged_columns_rejected(self):
        schema = Schema([Column("a", DataType.INT32),
                         Column("b", DataType.INT32)])
        with pytest.raises(TableError, match="ragged"):
            Table(schema, {"a": np.array([1, 2]), "b": np.array([1])})

    def test_dict_column_requires_dictionary(self):
        schema = Schema([Column("s", DataType.DICT_STRING)])
        with pytest.raises(TableError, match="no dictionary"):
            Table(schema, {"s": np.array([0])})

    def test_dtype_coercion(self):
        schema = Schema([Column("a", DataType.INT32)])
        table = Table(schema, {"a": np.array([1.0, 2.0])})
        assert table.column("a").dtype == np.int32

    def test_empty(self):
        schema = Schema([Column("a", DataType.INT32)])
        table = Table(schema, {"a": np.empty(0, dtype=np.int32)})
        assert table.num_rows == 0


class TestAccess:
    def test_strings_materialisation(self):
        table = make_dict_table()
        assert table.strings("url").tolist() == [
            "a.com", "c.com", "b.com", "a.com"
        ]

    def test_dictionary_of_non_dict_column_raises(self):
        table = make_dict_table()
        with pytest.raises(TableError, match="not dictionary-encoded"):
            table.dictionary("k")

    def test_row_bytes(self, small_table):
        assert small_table.row_bytes() == 12
        assert small_table.row_bytes(["v"]) == 4


class TestOperations:
    def test_filter(self, small_table):
        out = small_table.filter(small_table.column("k") == 2)
        assert out.column("v").tolist() == [20, 21]

    def test_filter_bad_mask_length(self, small_table):
        with pytest.raises(TableError, match=r"mask length 1 != table rows 5"):
            small_table.filter(np.array([True]))

    def test_filter_non_boolean_mask_names_dtype(self, small_table):
        """The error must name the offending dtype, so a caller holding
        row indices sees immediately what they passed."""
        with pytest.raises(TableError, match=r"got dtype int64.*take\(\)"):
            small_table.filter(np.array([0, 2, 4], dtype=np.int64))

    def test_take(self, small_table):
        out = small_table.take(np.array([4, 0]))
        assert out.column("k").tolist() == [5, 1]

    def test_project(self, small_table):
        out = small_table.project(["v"])
        assert out.schema.names == ("v",)
        assert out.num_rows == 5

    def test_project_preserves_dictionary(self):
        table = make_dict_table()
        out = table.project(["url"])
        assert out.strings("url")[0] == "a.com"

    def test_rename(self, small_table):
        out = small_table.rename({"k": "key"})
        assert out.schema.names == ("key", "v")
        assert out.column("key").tolist() == small_table.column("k").tolist()

    def test_with_column(self, small_table):
        out = small_table.with_column(
            Column("w", DataType.INT64),
            np.arange(5, dtype=np.int64),
        )
        assert out.schema.names == ("k", "v", "w")
        assert out.column("w").tolist() == [0, 1, 2, 3, 4]

    def test_slice_is_view(self, small_table):
        out = small_table.slice(1, 3)
        assert out.column("k").tolist() == [2, 2]
        assert out.column("k").base is not None

    def test_to_rows(self):
        table = make_dict_table()
        rows = table.to_rows()
        assert rows[0] == (1, "a.com")


class TestConcat:
    def test_roundtrip_split_concat(self, small_table):
        parts = split_table(small_table, 2)
        combined = Table.concat(parts)
        assert combined.to_rows() == small_table.to_rows()

    def test_concat_empty_list_rejected(self):
        with pytest.raises(TableError):
            Table.concat([])

    def test_concat_schema_mismatch(self, small_table):
        other = small_table.rename({"k": "x"})
        with pytest.raises(TableError, match="schema mismatch"):
            Table.concat([small_table, other])

    def test_concat_dict_tables_sharing_dictionary(self):
        table = make_dict_table()
        parts = split_table(table, 2)
        combined = Table.concat(parts)
        assert combined.strings("url").tolist() == \
            table.strings("url").tolist()


class TestFromRows:
    def test_round_trip(self):
        schema = Schema([
            Column("k", DataType.INT32),
            Column("s", DataType.DICT_STRING),
        ])
        table = table_from_rows(schema, [(1, "x"), (2, "y"), (3, "x")])
        assert table.to_rows() == [(1, "x"), (2, "y"), (3, "x")]

    def test_empty_rows(self):
        schema = Schema([Column("k", DataType.INT32)])
        assert table_from_rows(schema, []).num_rows == 0
