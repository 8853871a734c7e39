"""Corner coverage across smaller surfaces: AST display, exchange edge
cases, config copies, advisor branches."""

import numpy as np
import pytest

from repro.config import default_config
from repro.core.advisor import JoinAdvisor, WorkloadEstimate
from repro.errors import ExpressionError
from repro.query.plan import join_aggregate, merge_partials
from repro.relational.aggregates import AggregateSpec
from repro.relational.schema import Column, DataType, Schema
from repro.relational.table import Table
from repro.sql.ast import Aggregate, ColumnRef, FuncCall


class TestAstDisplay:
    def test_column_ref_display(self):
        assert ColumnRef("T", "joinKey").display() == "T.joinKey"
        assert ColumnRef(None, "joinKey").display() == "joinKey"

    def test_func_call_display(self):
        call = FuncCall("extract_group", ColumnRef("L", "col"))
        assert call.display() == "extract_group(L.col)"

    def test_aggregate_fields(self):
        aggregate = Aggregate("sum", ColumnRef(None, "v"), alias="total")
        assert aggregate.function == "sum"
        assert aggregate.alias == "total"


class TestExchangeEdges:
    def test_final_aggregate_with_all_partials_empty(self, paper_query,
                                                     paper_workload):
        t_empty = paper_workload.t_table.slice(0, 0).project(
            list(paper_query.db_projection)
        )
        l_empty = paper_workload.l_table.slice(0, 0).project(
            list(paper_query.hdfs_projection)
        )
        for derived in paper_query.hdfs_derived:
            l_empty = derived.apply(l_empty)
        l_empty = l_empty.project(list(paper_query.hdfs_wire_columns()))
        partial, join_rows = join_aggregate(
            [(t_empty, l_empty)], paper_query)
        assert partial.num_rows == join_rows == 0
        assert partial.schema.names == ("l_urlPrefix", "count")
        merged = merge_partials([partial, partial, partial], paper_query)
        assert merged.num_rows == 0


class TestConfigCopies:
    def test_scaled_preserves_other_fields(self):
        config = default_config(scale=1 / 1000)
        rescaled = config.scaled(1 / 2000)
        assert rescaled.scale == 1 / 2000
        assert rescaled.cost == config.cost
        assert rescaled.bloom == config.bloom

    def test_trace_describe_includes_deps(self):
        from repro.sim.trace import Trace

        trace = Trace("demo")
        trace.add("a", "cpu", 1.0)
        trace.add("b", "cpu", 2.0, after=["a"])
        trace.add("c", "cpu", 2.0, streams_from=["b"])
        text = trace.describe()
        assert "after a" in text
        assert "streams b" in text


class TestAdvisorBranches:
    def test_text_format_changes_estimates(self):
        advisor = JoinAdvisor()
        base = dict(t_rows=1.6e9, l_rows=15e9, sigma_t=0.1, sigma_l=0.2,
                    s_t=0.2, s_l=0.1)
        parquet = advisor.estimate_all(WorkloadEstimate(**base))
        text = advisor.estimate_all(WorkloadEstimate(
            **base, format_name="text", l_scan_bytes=74.0,
        ))
        for name in parquet:
            assert text[name] >= parquet[name] - 1.0

    def test_broadcast_rationale(self):
        advisor = JoinAdvisor()
        decision = advisor.decide(WorkloadEstimate(
            t_rows=1.6e9, l_rows=15e9, sigma_t=0.0003, sigma_l=0.2,
            s_t=0.5, s_l=0.1,
        ))
        if decision.best == "broadcast":
            assert "broadcast" in decision.rationale.lower() or \
                "shuffle" in decision.rationale.lower()

    def test_repartition_rationale_fallback(self):
        advisor = JoinAdvisor()
        text = advisor._rationale(
            WorkloadEstimate(t_rows=1e9, l_rows=1e10, sigma_t=0.1,
                             sigma_l=0.2, s_t=0.2, s_l=0.1),
            "repartition",
        )
        assert "robust" in text


class TestJoinStatsEdges:
    def test_summary_formats_large_numbers(self):
        from repro.core.joins.base import JoinResult, JoinStats
        from repro.sim.replay import TimingResult
        from repro.sim.trace import Trace

        schema = Schema([Column("g", DataType.INT64),
                         Column("count", DataType.INT64)])
        table = Table(schema, {
            "g": np.array([1]), "count": np.array([7]),
        })
        result = JoinResult(
            algorithm="zigzag",
            result=table,
            stats=JoinStats(hdfs_tuples_shuffled=591e3,
                            db_tuples_sent=30e3),
            trace=Trace("t"),
            timing=TimingResult("t", 93.9, {}),
            scale_up=1000.0,
        )
        summary = result.summary()
        assert "zigzag" in summary and "93.9" in summary
        assert "591.0M" in summary.replace(" ", "")


class TestAggregateOutputTypes:
    def test_output_dtype_map(self):
        assert AggregateSpec("count").output_dtype() is DataType.INT64
        assert AggregateSpec("avg", "v").output_dtype() is DataType.FLOAT64
        assert AggregateSpec("min", "v").output_dtype() is DataType.INT64

    def test_invalid_function_message(self):
        with pytest.raises(ExpressionError, match="median"):
            AggregateSpec("median", "v")
