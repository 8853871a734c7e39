"""Unit tests for repro.relational.schema."""

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.relational.schema import Column, DataType, Schema


class TestDataType:
    def test_numpy_dtypes(self):
        assert DataType.INT32.numpy_dtype() == np.dtype(np.int32)
        assert DataType.INT64.numpy_dtype() == np.dtype(np.int64)
        assert DataType.FLOAT64.numpy_dtype() == np.dtype(np.float64)
        assert DataType.DATE.numpy_dtype() == np.dtype(np.int32)
        assert DataType.DICT_STRING.numpy_dtype() == np.dtype(np.int32)

    def test_default_widths(self):
        assert DataType.INT32.default_width() == 4
        assert DataType.INT64.default_width() == 8
        assert DataType.DATE.default_width() == 4


class TestColumn:
    def test_width_defaults_to_type_width(self):
        assert Column("a", DataType.INT32).width() == 4

    def test_width_override(self):
        assert Column("url", DataType.DICT_STRING, width_bytes=46).width() == 46


class TestSchema:
    def setup_method(self):
        self.schema = Schema([
            Column("a", DataType.INT32),
            Column("b", DataType.INT64),
            Column("s", DataType.DICT_STRING, width_bytes=20),
        ])

    def test_names_in_order(self):
        assert self.schema.names == ("a", "b", "s")

    def test_len_and_iter(self):
        assert len(self.schema) == 3
        assert [c.name for c in self.schema] == ["a", "b", "s"]

    def test_column_lookup(self):
        assert self.schema.column("b").dtype is DataType.INT64

    def test_unknown_column_raises(self):
        with pytest.raises(SchemaError, match="unknown column"):
            self.schema.column("zzz")

    def test_has_column(self):
        assert self.schema.has_column("a")
        assert not self.schema.has_column("zzz")

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            Schema([Column("a", DataType.INT32),
                    Column("a", DataType.INT64)])

    def test_project_orders_and_subsets(self):
        projected = self.schema.project(["s", "a"])
        assert projected.names == ("s", "a")

    def test_project_unknown_raises(self):
        with pytest.raises(SchemaError):
            self.schema.project(["nope"])

    def test_rename(self):
        renamed = self.schema.rename({"a": "x"})
        assert renamed.names == ("x", "b", "s")
        # width preserved
        assert renamed.column("s").width() == 20

    def test_concat(self):
        other = Schema([Column("z", DataType.DATE)])
        combined = self.schema.concat(other)
        assert combined.names == ("a", "b", "s", "z")

    def test_row_width_full_and_projected(self):
        assert self.schema.row_width() == 4 + 8 + 20
        assert self.schema.row_width(["a", "s"]) == 24
