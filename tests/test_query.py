"""Tests for the query layer: HybridQuery, plan steps, stats, and the
oracle's answer to the paper query."""

import numpy as np
import pytest

from repro.edw.udf import _extract_group
from repro.errors import ExpressionError
from repro.kernels.joinindex import probe_join
from repro.query.plan import join_aggregate, merge_partials
from repro.query.query import DerivedColumn, HybridQuery
from repro.query.stats import measure_selectivities
from repro.relational.operators import joined_rows
from repro.relational.schema import DataType
from repro.relational.table import Table
from repro.testkit import oracle
from tests.conftest import split_table


def wire_sides(t_table, l_table, query, filtered=True):
    """Both sides as the engines ship them: filtered (unless told
    otherwise), projected, and L derived down to its wire columns."""
    if filtered:
        t_table = t_table.filter(query.db_predicate.evaluate(t_table))
        l_table = l_table.filter(query.hdfs_predicate.evaluate(l_table))
    l_rows = l_table.project(list(query.hdfs_projection))
    for derived in query.hdfs_derived:
        l_rows = derived.apply(l_rows)
    return (t_table.project(list(query.db_projection)),
            l_rows.project(list(query.hdfs_wire_columns())))


class TestHybridQueryValidation:
    def base_kwargs(self):
        return dict(
            db_table="T", hdfs_table="L",
            db_join_key="joinKey", hdfs_join_key="joinKey",
            db_projection=("joinKey",),
            hdfs_projection=("joinKey",),
            group_by=("l_joinKey",),
        )

    def test_valid(self):
        query = HybridQuery(**self.base_kwargs())
        assert f"{query.hdfs_prefix}{query.hdfs_join_key}" == "l_joinKey"

    def test_join_key_must_be_projected(self):
        kwargs = self.base_kwargs()
        kwargs["db_projection"] = ("other",)
        with pytest.raises(ExpressionError, match="join key"):
            HybridQuery(**kwargs)

    def test_group_by_required(self):
        kwargs = self.base_kwargs()
        kwargs["group_by"] = ()
        with pytest.raises(ExpressionError, match="group_by"):
            HybridQuery(**kwargs)

    def test_prefixes_must_differ(self):
        kwargs = self.base_kwargs()
        kwargs["db_prefix"] = kwargs["hdfs_prefix"] = "x_"
        with pytest.raises(ExpressionError, match="prefixes"):
            HybridQuery(**kwargs)

    def test_wire_columns_drop_consumed_sources(self, paper_query):
        wire = paper_query.hdfs_wire_columns()
        assert "urlPrefix" in wire
        assert "groupByExtractCol" not in wire
        assert "joinKey" in wire


class TestSelectivityMeasurement:
    def test_workload_hits_spec(self, paper_workload, paper_query):
        report = measure_selectivities(
            paper_workload.t_table, paper_workload.l_table, paper_query
        )
        spec = paper_workload.spec
        assert report.sigma_t == pytest.approx(spec.sigma_t, rel=0.06)
        assert report.sigma_l == pytest.approx(spec.sigma_l, rel=0.06)
        assert report.s_t == pytest.approx(spec.s_t, rel=0.08)
        assert report.s_l == pytest.approx(spec.s_l, rel=0.08)

    def test_describe_contains_values(self, paper_workload, paper_query):
        report = measure_selectivities(
            paper_workload.t_table, paper_workload.l_table, paper_query
        )
        text = report.describe()
        assert "sigma_T" in text and "S_L'" in text

    def test_empty_table(self, paper_workload, paper_query):
        report = measure_selectivities(
            paper_workload.t_table.slice(0, 0),
            paper_workload.l_table.slice(0, 0), paper_query)
        assert (report.sigma_t, report.sigma_l, report.s_t, report.s_l) \
            == (0.0, 0.0, 0.0, 0.0)


class TestPlanSteps:
    def test_joined_rows_prefixes(self, paper_workload, paper_query):
        t, l_wire = wire_sides(paper_workload.t_table.slice(0, 200),
                               paper_workload.l_table.slice(0, 200),
                               paper_query, filtered=False)
        build_idx, probe_idx = probe_join(
            l_wire.column(paper_query.hdfs_join_key),
            t.column(paper_query.db_join_key))
        joined = joined_rows(l_wire, t, build_idx, probe_idx,
                             paper_query.hdfs_prefix, paper_query.db_prefix)
        assert "t_joinKey" in joined.schema.names
        assert "l_joinKey" in joined.schema.names
        assert (joined.column("t_joinKey")
                == joined.column("l_joinKey")).all()

    def test_partials_merge_to_reference(self, paper_workload, paper_query,
                                         paper_oracle):
        """Splitting the probe side arbitrarily and merging the per-part
        partial aggregates reproduces the oracle's result."""
        t, l_wire = wire_sides(paper_workload.t_table,
                               paper_workload.l_table, paper_query)
        partials = [
            join_aggregate([(part, l_wire)], paper_query)[0]
            for part in split_table(t, 7)
        ]
        merged = merge_partials(partials, paper_query)
        oracle.assert_equivalent(merged, paper_oracle)


class TestReferenceExecutor:
    """The oracle's answer to the paper query has the expected shape."""

    def test_reference_groups_and_counts(self, paper_oracle):
        assert paper_oracle.num_rows > 0
        assert paper_oracle.schema.names == ("l_urlPrefix", "count")
        assert int(paper_oracle.column("count").min()) >= 1

    def test_post_join_predicate_reduces_count(self, paper_workload,
                                               paper_query):
        from dataclasses import replace
        # A slice: without the date band every key match survives, and
        # the oracle aggregates row by row.
        t_rows = paper_workload.t_table.slice(0, 8_000)
        l_rows = paper_workload.l_table.slice(0, 75_000)
        without_date = replace(paper_query, post_join_predicate=None)
        with_date = oracle.oracle_execute(t_rows, l_rows, paper_query)
        without = oracle.oracle_execute(t_rows, l_rows, without_date)
        assert 0 < int(with_date.column("count").sum()) < \
            int(without.column("count").sum())


class TestDerivedColumn:
    def test_requires_dict_string(self, paper_workload):
        derived = DerivedColumn("x", "joinKey", "udf", lambda s: s)
        with pytest.raises(ExpressionError, match="dict-string"):
            derived.apply(paper_workload.l_table)


class TestDerivedColumnMemo:
    """The UDF sweep is memoised per dictionary object, not per block."""

    SOURCE = "groupByExtractCol"

    def counting_column(self):
        calls = []

        def udf(value):
            calls.append(value)
            return _extract_group(value)

        return DerivedColumn("urlPrefix", self.SOURCE, "extract_group",
                             udf), calls

    def fresh_apply(self, table):
        """A new column per call: nothing memoised to reuse."""
        return DerivedColumn("urlPrefix", self.SOURCE, "extract_group",
                             _extract_group).apply(table)

    @staticmethod
    def assert_same_derivation(actual, expected):
        np.testing.assert_array_equal(actual.column("urlPrefix"),
                                      expected.column("urlPrefix"))
        np.testing.assert_array_equal(actual.dictionary("urlPrefix"),
                                      expected.dictionary("urlPrefix"))

    def scanned_blocks(self, warehouse):
        return [warehouse.hdfs.read_block(block)
                for block in warehouse.hdfs.table_blocks("L")]

    def test_blocks_sharing_a_dictionary_run_the_udf_once(
            self, loaded_warehouse):
        blocks = self.scanned_blocks(loaded_warehouse)
        assert len(blocks) >= 2
        dictionary = blocks[0].dictionary(self.SOURCE)
        assert all(block.dictionary(self.SOURCE) is dictionary
                   for block in blocks)
        derived, calls = self.counting_column()
        for block in blocks:
            self.assert_same_derivation(derived.apply(block),
                                        self.fresh_apply(block))
        assert len(calls) == len(dictionary)

    def test_a_different_dictionary_object_reruns_the_udf(
            self, loaded_warehouse):
        block = self.scanned_blocks(loaded_warehouse)[0]
        dictionary = block.dictionary(self.SOURCE)
        names = block.schema.names
        copied = Table(
            block.schema,
            {name: block.column(name) for name in names},
            {name: block.dictionary(name) for name in names
             if block.schema.column(name).dtype is DataType.DICT_STRING}
            | {self.SOURCE: dictionary.copy()},
        )
        derived, calls = self.counting_column()
        derived.apply(block)
        assert len(calls) == len(dictionary)
        self.assert_same_derivation(derived.apply(copied),
                                    self.fresh_apply(copied))
        assert len(calls) == 2 * len(dictionary)
        # The memo now holds the copy; the original re-runs once more.
        derived.apply(block)
        assert len(calls) == 3 * len(dictionary)
