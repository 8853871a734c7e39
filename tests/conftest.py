"""Shared fixtures for the test suite.

The expensive fixtures (generated workload, fully loaded warehouse) are
session-scoped; tests must treat them as read-only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    HybridWarehouse,
    WorkloadSpec,
    build_paper_query,
    default_config,
    generate_workload,
)
from repro.relational.schema import Column, DataType, Schema
from repro.relational.table import Table
from repro.testkit import oracle

#: Small but non-trivial test scale: 1/50,000 of the paper's tables.
TEST_SCALE = 1.0 / 50_000.0


def make_test_spec(sigma_t=0.1, sigma_l=0.4, s_t=0.2, s_l=0.1, seed=42):
    """A workload spec at the test scale."""
    return WorkloadSpec(
        sigma_t=sigma_t, sigma_l=sigma_l, s_t=s_t, s_l=s_l,
        t_rows=32_000, l_rows=300_000, n_keys=320, n_urls=120, seed=seed,
    )


def build_test_warehouse(workload, format_name="parquet",
                         scale=TEST_SCALE):
    """A loaded warehouse (fresh engines) for a generated workload."""
    warehouse = HybridWarehouse(default_config(scale=scale))
    warehouse.load_db_table("T", workload.t_table, distribute_on="uniqKey")
    warehouse.database.create_index("T", "idx_pred", ["corPred", "indPred"])
    warehouse.database.create_index(
        "T", "idx_bloom", ["corPred", "indPred", "joinKey"]
    )
    warehouse.load_hdfs_table("L", workload.l_table, format_name)
    return warehouse


@pytest.fixture(scope="session")
def paper_workload():
    """The Table-1 parameter point, generated once."""
    return generate_workload(make_test_spec())


@pytest.fixture(scope="session")
def paper_query(paper_workload):
    """The Section 5 query over the session workload."""
    return build_paper_query(paper_workload)


@pytest.fixture(scope="session")
def paper_oracle(paper_workload, paper_query):
    """The oracle's answer to the session query (row-wise Python, so
    computed once; compare with ``oracle.assert_equivalent``)."""
    return oracle.oracle_execute(
        paper_workload.t_table, paper_workload.l_table, paper_query
    )


@pytest.fixture(scope="session")
def loaded_warehouse(paper_workload):
    """A fully loaded warehouse over the session workload (read-only)."""
    return build_test_warehouse(paper_workload)


@pytest.fixture
def small_table():
    """A tiny two-column table for operator tests."""
    schema = Schema([
        Column("k", DataType.INT64),
        Column("v", DataType.INT32),
    ])
    return Table(schema, {
        "k": np.array([1, 2, 2, 3, 5], dtype=np.int64),
        "v": np.array([10, 20, 21, 30, 50], dtype=np.int32),
    })
