"""Tests for the query layer: HybridQuery, plan steps, stats, executor."""

import numpy as np
import pytest

from repro.edw.udf import _extract_group
from repro.errors import ExpressionError
from repro.query.executor import reference_join
from repro.query.plan import (
    local_join,
    local_partial_aggregate,
    merge_partials,
)
from repro.query.query import DerivedColumn, HybridQuery
from repro.query.stats import measure_selectivities, predicate_selectivity
from repro.relational.expressions import compare
from repro.relational.schema import DataType
from repro.relational.table import Table


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
        assert query.prefixed_db_key() == "t_joinKey"
        assert query.prefixed_hdfs_key() == "l_joinKey"

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

    def test_predicate_selectivity(self, small_table):
        assert predicate_selectivity(
            small_table, compare("k", "<=", 2)
        ) == pytest.approx(3 / 5)

    def test_empty_table(self, small_table):
        empty = small_table.slice(0, 0)
        assert predicate_selectivity(empty, compare("k", "<=", 2)) == 0.0


class TestPlanSteps:
    def test_local_join_prefixes(self, paper_workload, paper_query):
        t = paper_workload.t_table.slice(0, 200).project(
            list(paper_query.db_projection)
        )
        l_rows = paper_workload.l_table.slice(0, 200).project(
            list(paper_query.hdfs_projection)
        )
        from repro.query.plan import apply_derivations
        l_wire = apply_derivations(l_rows, paper_query).project(
            list(paper_query.hdfs_wire_columns())
        )
        joined = local_join(t, l_wire, paper_query)
        assert "t_joinKey" in joined.schema.names
        assert "l_joinKey" in joined.schema.names
        assert (joined.column("t_joinKey")
                == joined.column("l_joinKey")).all()

    def test_partials_merge_to_reference(self, paper_workload, paper_query):
        """Splitting the joined table arbitrarily and merging the partial
        aggregates reproduces the single-node result."""
        reference = reference_join(
            paper_workload.t_table, paper_workload.l_table, paper_query
        )
        from repro.query.plan import apply_derivations
        t = paper_workload.t_table.filter(
            paper_query.db_predicate.evaluate(paper_workload.t_table)
        ).project(list(paper_query.db_projection))
        l_rows = paper_workload.l_table.filter(
            paper_query.hdfs_predicate.evaluate(paper_workload.l_table)
        ).project(list(paper_query.hdfs_projection))
        l_wire = apply_derivations(l_rows, paper_query).project(
            list(paper_query.hdfs_wire_columns())
        )
        joined = local_join(t, l_wire, paper_query)
        partials = [
            local_partial_aggregate(part, paper_query)
            for part in joined.split(7)
        ]
        merged = merge_partials(partials, paper_query)
        assert merged.to_rows() == reference.to_rows()


class TestReferenceExecutor:
    def test_reference_groups_and_counts(self, paper_workload, paper_query):
        result = reference_join(
            paper_workload.t_table, paper_workload.l_table, paper_query
        )
        assert result.num_rows > 0
        assert result.schema.names == ("l_urlPrefix", "count")
        assert int(result.column("count").min()) >= 1

    def test_post_join_predicate_reduces_count(self, paper_workload,
                                               paper_query):
        from dataclasses import replace
        without_date = replace(paper_query, post_join_predicate=None)
        with_date = reference_join(
            paper_workload.t_table, paper_workload.l_table, paper_query
        )
        without = reference_join(
            paper_workload.t_table, paper_workload.l_table, without_date
        )
        assert int(with_date.column("count").sum()) < \
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
