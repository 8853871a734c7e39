"""Tests for star-schema SQL: multiple database tables in FROM."""

import numpy as np
import pytest

from repro.relational.schema import Column, DataType, Schema
from repro.relational.table import Table
from repro.sql import SqlSession
from repro.sql.lexer import SqlError
from repro.testkit import oracle
from tests.conftest import build_test_warehouse

NUM_PRODUCTS = 120
NUM_REGIONS = 8


def dimensions(paper_workload):
    fact = paper_workload.t_table.with_column(
        Column("product_id", DataType.INT32),
        (paper_workload.t_table.column("dummy2") % NUM_PRODUCTS)
        .astype(np.int32),
    )
    products = Table(
        Schema([Column("product_id", DataType.INT32),
                Column("category", DataType.INT32),
                Column("region_id", DataType.INT32)]),
        {
            "product_id": np.arange(NUM_PRODUCTS, dtype=np.int32),
            "category": (np.arange(NUM_PRODUCTS) % 10).astype(np.int32),
            "region_id": (np.arange(NUM_PRODUCTS) % NUM_REGIONS)
            .astype(np.int32),
        },
    )
    regions = Table(
        Schema([Column("region_id", DataType.INT32),
                Column("zone", DataType.INT32)]),
        {
            "region_id": np.arange(NUM_REGIONS, dtype=np.int32),
            "zone": (np.arange(NUM_REGIONS) % 3).astype(np.int32),
        },
    )
    return fact, products, regions


@pytest.fixture()
def star_session(paper_workload):
    warehouse = build_test_warehouse(paper_workload)
    fact, products, regions = dimensions(paper_workload)
    warehouse.load_db_table("F", fact, distribute_on="uniqKey")
    warehouse.load_db_table("P", products, distribute_on="product_id")
    warehouse.load_db_table("R", regions, distribute_on="region_id")
    return SqlSession(warehouse), paper_workload


STAR_SQL = """
    SELECT L.joinKey, COUNT(*)
    FROM F, P, L
    WHERE F.product_id = P.product_id
      AND P.category <= 2
      AND F.joinKey = L.joinKey
      AND L.corPred <= {c}
    GROUP BY L.joinKey
"""

#: STAR_SQL narrowed by the paper's date band, so the row-wise oracle
#: aggregates tens of thousands of joined rows rather than millions.
STAR_BAND_SQL = STAR_SQL.replace("""
    GROUP BY""", """
      AND days(F.predAfterJoin) - days(L.predAfterJoin) >= 0
      AND days(F.predAfterJoin) - days(L.predAfterJoin) <= 1
    GROUP BY""")


class TestStarTranslation:
    def test_prejoin_plan(self, star_session, paper_workload):
        session, workload = star_session
        translation = session.explain(
            STAR_SQL.format(c=workload.l_thresholds.cor_threshold)
        )
        assert translation.needs_prejoin()
        assert translation.fact_table == "F"
        assert len(translation.prejoins) == 1
        step = translation.prejoins[0]
        assert step.right_table == "P"
        assert step.left_key == "product_id"
        assert "joinKey" in translation.fact_projection

    def test_snowflake_chain(self, star_session, paper_workload):
        session, workload = star_session
        translation = session.explain("""
            SELECT L.joinKey, COUNT(*)
            FROM F, P, R, L
            WHERE F.product_id = P.product_id
              AND P.region_id = R.region_id
              AND R.zone = 1
              AND F.joinKey = L.joinKey
            GROUP BY L.joinKey
        """)
        assert [s.right_table for s in translation.prejoins] == ["P", "R"]

    def test_disconnected_dimension_rejected(self, star_session):
        session, _ = star_session
        with pytest.raises(SqlError, match="no join condition"):
            session.explain("""
                SELECT L.joinKey, COUNT(*)
                FROM F, R, L
                WHERE F.joinKey = L.joinKey
                GROUP BY L.joinKey
            """)

    def test_two_table_query_unaffected(self, star_session, paper_workload):
        session, workload = star_session
        translation = session.explain("""
            SELECT L.joinKey, COUNT(*) FROM T, L
            WHERE T.joinKey = L.joinKey GROUP BY L.joinKey
        """)
        assert not translation.needs_prejoin()
        assert translation.query.db_table == "T"

    def test_two_hdfs_tables_rejected(self, star_session):
        session, _ = star_session
        with pytest.raises(SqlError, match="exactly one FROM table"):
            session.explain(
                "SELECT L.joinKey, COUNT(*) FROM L, L x "
                "WHERE L.joinKey = x.joinKey GROUP BY L.joinKey"
            )


class TestStarExecution:
    def reference(self, workload, session, query):
        fact, products, _regions = dimensions(workload)
        keep = products.column("category") <= 2
        filtered = Table(
            Schema([Column("__pid", DataType.INT32)]),
            {"__pid": products.column("product_id")[keep]},
        )
        enriched = oracle.dict_hash_join(
            fact, filtered, "product_id", "__pid",
        ).project(["joinKey", "predAfterJoin", "corPred", "indPred"])
        return oracle.oracle_execute(enriched, workload.l_table, query)

    def test_star_sql_matches_reference(self, star_session,
                                        paper_workload):
        session, workload = star_session
        sql = STAR_BAND_SQL.format(c=workload.l_thresholds.cor_threshold)
        result = session.execute(sql, algorithm="zigzag")
        query = result.query
        assert query.post_join_predicate is not None
        reference = self.reference(workload, session, query)
        oracle.assert_equivalent(result.rows(), reference)

    def test_algorithms_agree_on_star_sql(self, star_session,
                                          paper_workload):
        session, workload = star_session
        sql = STAR_SQL.format(c=workload.l_thresholds.cor_threshold)
        zigzag = session.execute(sql, algorithm="zigzag")
        db_side = session.execute(sql, algorithm="db(BF)")
        assert sorted(zigzag.rows()) == sorted(db_side.rows())

    def test_repeat_execution_derives_fresh_tables(self, star_session,
                                                   paper_workload):
        session, workload = star_session
        sql = STAR_SQL.format(c=workload.l_thresholds.cor_threshold)
        first = session.execute(sql, algorithm="repartition")
        second = session.execute(sql, algorithm="repartition")
        assert sorted(first.rows()) == sorted(second.rows())
        # Two distinct derived tables were registered.
        assert first.query.db_table != second.query.db_table

    def test_auto_mode_on_star(self, star_session, paper_workload):
        session, workload = star_session
        sql = STAR_SQL.format(c=workload.l_thresholds.cor_threshold)
        result = session.execute(sql)
        direct = session.execute(sql, algorithm="zigzag")
        assert sorted(result.rows()) == sorted(direct.rows())
