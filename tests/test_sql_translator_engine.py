"""Tests for SQL translation and the SqlSession execution engine."""

from unittest import mock

import pytest

from repro.kernels.joinindex import JoinBuildIndex
from repro.relational.expressions import BetweenDayDiff, ColumnPairPredicate
from repro.sql import SqlSession
from repro.sql.lexer import SqlError
from repro.testkit import oracle


def paper_sql(workload, extra=""):
    tt, lt = workload.t_thresholds, workload.l_thresholds
    return f"""
        SELECT extract_group(L.groupByExtractCol), COUNT(*)
        FROM T, L
        WHERE T.corPred <= {tt.cor_threshold}
          AND T.indPred <= {tt.ind_threshold}
          AND L.corPred <= {lt.cor_threshold}
          AND L.indPred <= {lt.ind_threshold}
          AND T.joinKey = L.joinKey
          AND days(T.predAfterJoin) - days(L.predAfterJoin) >= 0
          AND days(T.predAfterJoin) - days(L.predAfterJoin) <= 1
          {extra}
        GROUP BY extract_group(L.groupByExtractCol)
    """


@pytest.fixture(scope="module")
def session(loaded_warehouse):
    return SqlSession(loaded_warehouse)


class TestTranslation:
    def test_paper_query_translates(self, session, paper_workload):
        translation = session.explain(paper_sql(paper_workload))
        query = translation.query
        assert query.db_table == "T" and query.hdfs_table == "L"
        assert query.db_join_key == "joinKey"
        assert set(query.db_projection) == {"joinKey", "predAfterJoin"}
        assert set(query.hdfs_projection) == {
            "joinKey", "predAfterJoin", "groupByExtractCol"
        }
        assert query.group_by == ("l_extract_group_groupByExtractCol",)
        post = query.post_join_predicate
        assert isinstance(post, BetweenDayDiff)
        assert (post.low, post.high) == (0, 1)

    def test_paper_query_plan_sides(self, session, paper_workload):
        # The facts a rendered plan of the paper query shows: which table
        # sits on each side, the equi-join, the scan-time UDF and that a
        # post-join predicate exists.
        query = session.explain(paper_sql(paper_workload)).query
        assert (query.db_table, query.hdfs_table) == ("T", "L")
        assert (query.db_join_key, query.hdfs_join_key) \
            == ("joinKey", "joinKey")
        assert [(d.udf_name, d.source) for d in query.hdfs_derived] \
            == [("extract_group", "groupByExtractCol")]
        assert query.post_join_predicate is not None

    def test_order_and_limit_translated(self, session):
        translation = session.explain("""
            SELECT L.joinKey, COUNT(*) FROM T, L
            WHERE T.joinKey = L.joinKey
            GROUP BY L.joinKey ORDER BY COUNT(*) DESC LIMIT 3
        """)
        assert translation.ordering == [("count", True)]
        assert translation.limit == 3

    def test_literal_on_left_normalised(self, session, paper_workload):
        tt = paper_workload.t_thresholds
        translation = session.explain(f"""
            SELECT L.joinKey, COUNT(*) FROM T, L
            WHERE {tt.cor_threshold} >= T.corPred
              AND T.joinKey = L.joinKey
            GROUP BY L.joinKey
        """)
        selectivity = translation.query.db_predicate
        assert selectivity.columns() == ("corPred",)

    def test_column_pair_post_join(self, session):
        translation = session.explain("""
            SELECT L.joinKey, COUNT(*) FROM T, L
            WHERE T.joinKey = L.joinKey
              AND T.predAfterJoin >= L.predAfterJoin
            GROUP BY L.joinKey
        """)
        post = translation.query.post_join_predicate
        assert isinstance(post, ColumnPairPredicate)
        assert post.left_column == "t_predAfterJoin"

    def test_unknown_table(self, session):
        with pytest.raises(SqlError, match="unknown table"):
            session.explain(
                "SELECT a, COUNT(*) FROM T, ghost "
                "WHERE T.joinKey = ghost.k GROUP BY a"
            )

    def test_unknown_column(self, session):
        with pytest.raises(SqlError, match="no column"):
            session.explain(
                "SELECT L.joinKey, COUNT(*) FROM T, L "
                "WHERE T.ghost = L.joinKey GROUP BY L.joinKey"
            )

    def test_ambiguous_column(self, session):
        with pytest.raises(SqlError, match="ambiguous"):
            session.explain(
                "SELECT L.joinKey, COUNT(*) FROM T, L "
                "WHERE joinKey <= 5 AND T.joinKey = L.joinKey "
                "GROUP BY L.joinKey"
            )

    def test_missing_join_condition(self, session):
        with pytest.raises(SqlError, match="equi-join"):
            session.explain(
                "SELECT L.joinKey, COUNT(*) FROM T, L "
                "WHERE T.corPred <= 5 GROUP BY L.joinKey"
            )

    def test_group_by_must_cover_select(self, session):
        with pytest.raises(SqlError, match="not in GROUP BY"):
            session.explain(
                "SELECT L.corPred, COUNT(*) FROM T, L "
                "WHERE T.joinKey = L.joinKey GROUP BY L.joinKey"
            )

    def test_aggregate_required(self, session):
        with pytest.raises(SqlError, match="aggregate"):
            session.explain(
                "SELECT L.joinKey FROM T, L "
                "WHERE T.joinKey = L.joinKey GROUP BY L.joinKey"
            )

    def test_unknown_udf(self, session):
        with pytest.raises(SqlError, match="unknown UDF"):
            session.explain(
                "SELECT mystery(L.groupByExtractCol), COUNT(*) FROM T, L "
                "WHERE T.joinKey = L.joinKey "
                "GROUP BY mystery(L.groupByExtractCol)"
            )

    def test_grouping_udf_must_be_hdfs_side(self, session):
        with pytest.raises(SqlError, match="JEN scan"):
            session.explain(
                "SELECT extract_group(T.dummy1), COUNT(*) FROM T, L "
                "WHERE T.joinKey = L.joinKey "
                "GROUP BY extract_group(T.dummy1)"
            )


class TestExecution:
    def test_matches_hand_built_query(self, session, paper_workload,
                                      paper_oracle):
        """The SQL spelling returns the oracle's answer to the
        hand-built query (``paper_oracle`` runs ``build_paper_query``)."""
        result = session.execute(paper_sql(paper_workload),
                                 algorithm="zigzag")
        oracle.assert_equivalent(result.rows(), paper_oracle)
        assert result.table.schema.names == (
            "extract_group(L.groupByExtractCol)", "count",
        )

    @pytest.mark.parametrize("algorithm", [
        "db", "db(BF)", "repartition", "repartition(BF)", "broadcast",
    ])
    def test_all_algorithms_agree_via_sql(self, session, paper_workload,
                                          algorithm):
        zigzag = session.execute(paper_sql(paper_workload), "zigzag")
        other = session.execute(paper_sql(paper_workload), algorithm)
        assert sorted(other.rows()) == sorted(zigzag.rows())

    @pytest.fixture(scope="class")
    def one_sided_band(self, session, paper_workload):
        """The SQL, its translated query and the oracle's answer (one
        row-wise oracle run shared by every algorithm)."""
        tt, lt = paper_workload.t_thresholds, paper_workload.l_thresholds
        sql = f"""
            SELECT extract_group(L.groupByExtractCol), COUNT(*)
            FROM T, L
            WHERE T.corPred <= {tt.cor_threshold}
              AND L.corPred <= {lt.cor_threshold}
              AND T.joinKey = L.joinKey
              AND days(T.predAfterJoin) - days(L.predAfterJoin) >= 0
            GROUP BY extract_group(L.groupByExtractCol)
        """
        query = session.explain(sql).query
        return sql, query, oracle.oracle_execute(
            paper_workload.t_table, paper_workload.l_table, query)

    @pytest.mark.parametrize("algorithm", ["repartition", "db(BF)",
                                           "zigzag"])
    def test_one_sided_band_matches_oracle(self, session, one_sided_band,
                                           algorithm):
        """``days(T) - days(L) >= 0`` alone: the translator's open upper
        bound is the ``2**31`` sentinel, which the band probe takes as
        it is."""
        sql, query, expected = one_sided_band
        assert query.post_join_predicate == BetweenDayDiff(
            "t_predAfterJoin", "l_predAfterJoin", low=0, high=2**31)
        band_probe = JoinBuildIndex._probe_band
        with mock.patch.object(JoinBuildIndex, "_probe_band",
                               autospec=True,
                               side_effect=band_probe) as probes:
            result = session.execute(sql, algorithm)
        assert probes.call_count > 0
        oracle.assert_equivalent(result.table.to_rows(), expected)

    def test_auto_mode_picks_and_explains(self, session, paper_workload):
        result = session.execute(paper_sql(paper_workload))
        assert result.algorithm in (
            "zigzag", "repartition(BF)", "repartition", "db(BF)", "db",
            "broadcast",
        )
        assert result.advisor_rationale
        zigzag = session.execute(paper_sql(paper_workload), "zigzag")
        assert sorted(result.rows()) == sorted(zigzag.rows())

    def test_aliases_and_multiple_aggregates(self, session):
        result = session.execute("""
            SELECT L.joinKey AS uid, COUNT(*) AS views,
                   SUM(L.predAfterJoin) AS total,
                   MIN(T.predAfterJoin) AS first_day,
                   MAX(T.predAfterJoin) AS last_day
            FROM T, L
            WHERE T.joinKey = L.joinKey AND T.corPred <= 100000
            GROUP BY L.joinKey
        """, algorithm="repartition")
        assert result.table.schema.names == (
            "uid", "views", "total", "first_day", "last_day",
        )
        rows = result.rows()
        assert rows
        for _uid, views, _total, first_day, last_day in rows:
            assert views >= 1
            assert first_day <= last_day

    def test_avg_decomposition_correct(self, session, paper_workload,
                                       loaded_warehouse):
        result = session.execute("""
            SELECT L.joinKey, AVG(L.predAfterJoin) AS avg_day, COUNT(*)
            FROM T, L
            WHERE T.joinKey = L.joinKey
            GROUP BY L.joinKey
        """, algorithm="repartition")
        # Cross-check one group against a direct computation.
        t = paper_workload.t_table
        l_table = paper_workload.l_table
        uid, avg_day, count = result.rows()[0]
        t_hits = int((t.column("joinKey") == uid).sum())
        l_mask = l_table.column("joinKey") == uid
        expected_avg = float(l_table.column("predAfterJoin")[l_mask].mean())
        assert count == t_hits * int(l_mask.sum())
        assert avg_day == pytest.approx(expected_avg, rel=1e-9)

    def test_udf_predicate_in_where(self, loaded_warehouse):
        loaded_warehouse.udfs.register(
            "half", lambda value: int(value) // 2
        )
        session = SqlSession(loaded_warehouse)
        result = session.execute("""
            SELECT L.joinKey, COUNT(*) FROM T, L
            WHERE T.joinKey = L.joinKey AND half(L.indPred) <= 100
            GROUP BY L.joinKey
        """, algorithm="repartition")
        # half(indPred) <= 100  <=>  indPred <= 201
        direct = session.execute("""
            SELECT L.joinKey, COUNT(*) FROM T, L
            WHERE T.joinKey = L.joinKey AND L.indPred <= 201
            GROUP BY L.joinKey
        """, algorithm="repartition")
        assert sorted(result.rows()) == sorted(direct.rows())


    def test_udf_predicate_on_the_db_side(self, loaded_warehouse):
        """A scalar UDF in the WHERE clause over a database column
        filters T like its formula does."""
        loaded_warehouse.udfs.register("tens", lambda value: int(value) // 10)
        session = SqlSession(loaded_warehouse)
        result = session.execute("""
            SELECT L.joinKey, COUNT(*) FROM T, L
            WHERE T.joinKey = L.joinKey AND tens(T.indPred) <= 100
            GROUP BY L.joinKey
        """, algorithm="db(BF)")
        # tens(indPred) <= 100  <=>  indPred <= 1009
        direct = session.execute("""
            SELECT L.joinKey, COUNT(*) FROM T, L
            WHERE T.joinKey = L.joinKey AND T.indPred <= 1009
            GROUP BY L.joinKey
        """, algorithm="db(BF)")
        assert result.rows() and sorted(result.rows()) == sorted(direct.rows())

class TestOrderByLimit:
    def test_order_by_alias_desc_with_limit(self, session):
        result = session.execute("""
            SELECT L.joinKey AS uid, COUNT(*) AS views
            FROM T, L WHERE T.joinKey = L.joinKey
            GROUP BY L.joinKey
            ORDER BY views DESC
            LIMIT 4
        """, algorithm="repartition")
        rows = result.rows()
        assert len(rows) == 4
        views = [row[1] for row in rows]
        assert views == sorted(views, reverse=True)

    def test_order_by_aggregate_expression(self, session):
        result = session.execute("""
            SELECT L.joinKey, COUNT(*) FROM T, L
            WHERE T.joinKey = L.joinKey
            GROUP BY L.joinKey
            ORDER BY COUNT(*) DESC
            LIMIT 2
        """, algorithm="repartition")
        counts = [row[1] for row in result.rows()]
        assert counts == sorted(counts, reverse=True)

    def test_order_by_group_column_ascending(self, session):
        result = session.execute("""
            SELECT L.joinKey, COUNT(*) FROM T, L
            WHERE T.joinKey = L.joinKey
            GROUP BY L.joinKey
            ORDER BY L.joinKey
        """, algorithm="repartition")
        keys = [row[0] for row in result.rows()]
        assert keys == sorted(keys)

    def test_order_by_string_column(self, session):
        result = session.execute("""
            SELECT extract_group(L.groupByExtractCol) AS prefix, COUNT(*)
            FROM T, L WHERE T.joinKey = L.joinKey
            GROUP BY extract_group(L.groupByExtractCol)
            ORDER BY prefix DESC
            LIMIT 3
        """, algorithm="repartition")
        prefixes = [row[0] for row in result.rows()]
        assert prefixes == sorted(prefixes, reverse=True)

    def test_order_by_unselected_expression_rejected(self, session):
        with pytest.raises(SqlError, match="ORDER BY"):
            session.explain("""
                SELECT L.joinKey, COUNT(*) FROM T, L
                WHERE T.joinKey = L.joinKey
                GROUP BY L.joinKey
                ORDER BY SUM(L.indPred)
            """)

    def test_limit_zero(self, session):
        result = session.execute("""
            SELECT L.joinKey, COUNT(*) FROM T, L
            WHERE T.joinKey = L.joinKey
            GROUP BY L.joinKey LIMIT 0
        """, algorithm="repartition")
        assert result.rows() == []


class TestInListPredicates:
    def test_in_list_on_hdfs_side(self, session):
        result = session.execute("""
            SELECT L.joinKey, COUNT(*) FROM T, L
            WHERE T.joinKey = L.joinKey AND L.joinKey IN (1, 2, 5)
            GROUP BY L.joinKey
        """, algorithm="repartition")
        assert {row[0] for row in result.rows()} <= {1, 2, 5}

    def test_in_list_on_db_side_matches_range(self, session):
        in_list = session.execute("""
            SELECT L.joinKey, COUNT(*) FROM T, L
            WHERE T.joinKey = L.joinKey AND T.predAfterJoin IN (0, 1, 2)
            GROUP BY L.joinKey
        """, algorithm="repartition")
        as_range = session.execute("""
            SELECT L.joinKey, COUNT(*) FROM T, L
            WHERE T.joinKey = L.joinKey AND T.predAfterJoin <= 2
            GROUP BY L.joinKey
        """, algorithm="repartition")
        assert sorted(in_list.rows()) == sorted(as_range.rows())

    def test_in_list_requires_literals(self, session):
        with pytest.raises(SqlError, match="literals"):
            session.explain("""
                SELECT L.joinKey, COUNT(*) FROM T, L
                WHERE T.joinKey = L.joinKey AND L.joinKey IN (T.corPred)
                GROUP BY L.joinKey
            """)

    def test_in_list_single_column_only(self, session):
        with pytest.raises(SqlError, match="single column"):
            session.explain("""
                SELECT L.joinKey, COUNT(*) FROM T, L
                WHERE T.joinKey = L.joinKey
                  AND days(T.predAfterJoin) - days(L.predAfterJoin) IN (1)
                GROUP BY L.joinKey
            """)
