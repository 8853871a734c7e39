"""The paper's retail scenario: schemas and the example query.

Section 2's motivating query — correlate online click logs (HDFS) with
sales transactions (EDW) — with the Section 5 schemas::

    T(uniqKey bigint, joinKey int, corPred int, indPred int,
      predAfterJoin date, dummy1 varchar(50), dummy2 int, dummy3 time)
    L(joinKey int, corPred int, indPred int, predAfterJoin date,
      groupByExtractCol varchar(46), dummy char(8))

and the benchmark query::

    SELECT extract_group(L.groupByExtractCol), COUNT(*)
    FROM T, L
    WHERE T.corPred <= a AND T.indPred <= b
      AND L.corPred <= c AND L.indPred <= d
      AND T.joinKey = L.joinKey
      AND days(T.predAfterJoin) - days(L.predAfterJoin) BETWEEN 0 AND 1
    GROUP BY extract_group(L.groupByExtractCol)
"""

from __future__ import annotations

import numpy as np

from repro.edw.udf import _extract_group
from repro.relational.aggregates import AggregateSpec
from repro.relational.expressions import BetweenDayDiff, compare
from repro.relational.schema import Column, DataType, Schema
from repro.query.query import DerivedColumn, HybridQuery
from repro.workload.generator import Workload


def transaction_schema() -> Schema:
    """Schema of the database transaction table T (paper Section 5)."""
    return Schema([
        Column("uniqKey", DataType.INT64),
        Column("joinKey", DataType.INT32),
        Column("corPred", DataType.INT32),
        Column("indPred", DataType.INT32),
        Column("predAfterJoin", DataType.DATE),
        Column("dummy1", DataType.DICT_STRING, width_bytes=30),
        Column("dummy2", DataType.INT32),
        Column("dummy3", DataType.INT32),  # time-of-day seconds
    ])


def log_schema() -> Schema:
    """Schema of the HDFS click-log table L (paper Section 5).

    ``groupByExtractCol`` is declared varchar(46); the generated URLs
    average about 30 characters, which puts the text-format table at
    roughly the paper's "about 1 TB" for 15 B rows.
    """
    return Schema([
        Column("joinKey", DataType.INT32),
        Column("corPred", DataType.INT32),
        Column("indPred", DataType.INT32),
        Column("predAfterJoin", DataType.DATE),
        Column("groupByExtractCol", DataType.DICT_STRING, width_bytes=30),
        Column("dummy", DataType.DICT_STRING, width_bytes=8),
    ])


def make_url_dictionary(n_urls: int) -> np.ndarray:
    """Distinct click URLs; several share each host so the grouping UDF
    genuinely reduces cardinality."""
    hosts = max(1, n_urls // 8)
    urls = [
        f"http://shop{index % hosts:03d}.example.com/item/p{index:05d}"
        for index in range(n_urls)
    ]
    return np.array(urls, dtype=object)


def load_paper_tables(warehouse, t_table, l_table,
                      format_name: str = "parquet"):
    """Load T and L into ``warehouse`` the way Section 5 sets them up.

    T is distributed on ``uniqKey`` with the paper's two indexes:
    ``idx_pred`` for predicate evaluation and ``idx_bloom`` for the
    index-only Bloom-filter plan.  L is written to HDFS in
    ``format_name``.  Returns ``warehouse``.
    """
    warehouse.load_db_table("T", t_table, distribute_on="uniqKey")
    warehouse.database.create_index("T", "idx_pred", ["corPred", "indPred"])
    warehouse.database.create_index(
        "T", "idx_bloom", ["corPred", "indPred", "joinKey"]
    )
    warehouse.load_hdfs_table("L", l_table, format_name)
    return warehouse


def build_paper_query(workload: Workload) -> HybridQuery:
    """The Section 5 benchmark query over a generated workload.

    The predicate constants come straight from the workload's solved
    thresholds, so the query hits the spec's σ and S values.
    """
    t_thresholds = workload.t_thresholds
    l_thresholds = workload.l_thresholds
    return HybridQuery(
        db_table="T",
        hdfs_table="L",
        db_join_key="joinKey",
        hdfs_join_key="joinKey",
        db_projection=("joinKey", "predAfterJoin"),
        hdfs_projection=("joinKey", "predAfterJoin", "groupByExtractCol"),
        db_predicate=(
            compare("corPred", "<=", t_thresholds.cor_threshold)
            & compare("indPred", "<=", t_thresholds.ind_threshold)
        ),
        hdfs_predicate=(
            compare("corPred", "<=", l_thresholds.cor_threshold)
            & compare("indPred", "<=", l_thresholds.ind_threshold)
        ),
        hdfs_derived=(
            DerivedColumn(
                name="urlPrefix",
                source="groupByExtractCol",
                udf_name="extract_group",
                function=_extract_group,
                width_bytes=24,
            ),
        ),
        post_join_predicate=BetweenDayDiff(
            "t_predAfterJoin", "l_predAfterJoin", low=0, high=1
        ),
        group_by=("l_urlPrefix",),
        aggregates=(AggregateSpec("count"),),
    )
