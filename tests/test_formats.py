"""Tests for the HDFS storage formats."""

import pytest

from repro.errors import StorageError
from repro.hdfs.formats import (
    ParquetFormat,
    TextFormat,
    format_by_name,
)
from repro.workload.scenario import log_schema, transaction_schema


class TestRegistry:
    def test_lookup(self):
        assert isinstance(format_by_name("text"), TextFormat)
        assert isinstance(format_by_name("parquet"), ParquetFormat)

    def test_unknown_format(self):
        with pytest.raises(StorageError, match="unknown storage format"):
            format_by_name("orc2")


class TestTextFormat:
    def test_no_projection_pushdown(self):
        fmt = TextFormat()
        schema = log_schema()
        full = fmt.scan_bytes_per_row(schema)
        projected = fmt.scan_bytes_per_row(schema, ["joinKey"])
        assert full == projected  # whole rows are read regardless

    def test_log_table_is_about_1tb_at_paper_scale(self):
        fmt = TextFormat()
        total = fmt.table_stored_bytes(log_schema(), 15_000_000_000)
        assert 0.9e12 < total < 1.35e12

    def test_row_width_composition(self):
        fmt = TextFormat()
        schema = log_schema()
        assert fmt.row_stored_bytes(schema) == sum(
            fmt.column_stored_bytes(column) for column in schema
        )


class TestParquetFormat:
    def test_projection_pushdown(self):
        fmt = ParquetFormat()
        schema = log_schema()
        full = fmt.scan_bytes_per_row(schema)
        projected = fmt.scan_bytes_per_row(schema, ["joinKey"])
        assert projected < full

    def test_compression_vs_text_about_2_4x(self):
        text = TextFormat().table_stored_bytes(log_schema(), 10_000)
        parquet = ParquetFormat().table_stored_bytes(log_schema(), 10_000)
        assert 2.0 < text / parquet < 3.2

    def test_log_table_is_about_421gb_at_paper_scale(self):
        fmt = ParquetFormat()
        total = fmt.table_stored_bytes(log_schema(), 15_000_000_000)
        assert 0.33e12 < total < 0.52e12

    def test_columns_cheaper_than_raw(self):
        fmt = ParquetFormat()
        for column in log_schema():
            assert fmt.column_stored_bytes(column) < column.width() + 1


class TestTransactionTable:
    def test_db_storage_is_about_97gb_at_paper_scale(self):
        # The database stores logical widths; T is 97 GB / 1.6 B rows.
        total = transaction_schema().row_width() * 1_600_000_000
        assert 0.85e11 < total < 1.15e11


class TestOrcFormat:
    def test_registered(self):
        from repro.hdfs.formats import OrcFormat
        assert isinstance(format_by_name("orc"), OrcFormat)

    def test_projection_pushdown(self):
        fmt = format_by_name("orc")
        schema = log_schema()
        assert fmt.scan_bytes_per_row(schema, ["joinKey"]) < \
            fmt.scan_bytes_per_row(schema)

    def test_compresses_harder_than_parquet(self):
        schema = log_schema()
        orc = format_by_name("orc").table_stored_bytes(schema, 10_000)
        parquet = format_by_name("parquet").table_stored_bytes(
            schema, 10_000
        )
        assert orc < parquet

    def test_join_correct_on_orc(self):
        from repro import algorithm_by_name
        from repro.testkit import oracle
        from repro.workload import WorkloadSpec, build_paper_query, \
            generate_workload
        from tests.conftest import build_test_warehouse

        workload = generate_workload(WorkloadSpec(
            sigma_t=0.2, sigma_l=0.2, s_l=0.2,
            t_rows=4_000, l_rows=20_000, n_keys=100, seed=3,
        ))
        query = build_paper_query(workload)
        warehouse = build_test_warehouse(workload, format_name="orc")
        result = algorithm_by_name("zigzag").run(warehouse, query)
        oracle.assert_equivalent(result.result, oracle.oracle_execute(
            workload.t_table, workload.l_table, query))
