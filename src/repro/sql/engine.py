"""The SQL session: parse, translate, choose an algorithm, execute.

Mirrors the paper's user experience — the query is submitted "at the
parallel database side" as one SQL statement, everything else happens
behind the scenes.  With ``algorithm="auto"`` the session samples the
loaded tables to estimate selectivities and lets the advisor pick the
join strategy, otherwise any registered algorithm name works.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.core.advisor import AdvisorDecision, JoinAdvisor, WorkloadEstimate
from repro.core.joins import JoinResult, algorithm_by_name
from repro.query.query import HybridQuery
from repro.relational.schema import Column, DataType
from repro.relational.table import Table
from repro.sql.lexer import SqlError
from repro.sql.parser import parse_select
from repro.sql.translator import Translation, translate

#: Rows sampled from each side for selectivity estimation in auto mode.
SAMPLE_ROWS = 20_000


@dataclass
class SqlResult:
    """Outcome of one SQL execution."""

    table: Table
    join_result: JoinResult
    query: HybridQuery
    algorithm: str
    advisor_rationale: str = ""

    @property
    def simulated_seconds(self) -> float:
        """Paper-scale execution time of the chosen algorithm."""
        return self.join_result.total_seconds

    def rows(self) -> List[tuple]:
        """Result rows as Python tuples."""
        return self.table.to_rows()


class SqlSession:
    """Executes SQL statements against one hybrid warehouse.

    ``estimate_refiner`` is an optional hook called as
    ``refiner(query, estimate) -> estimate`` after sampling and before
    advising — the seam the service plane's execution feedback loop
    plugs into so observed statistics from completed queries sharpen
    later advice.
    """

    def __init__(self, warehouse,
                 estimate_refiner: Optional[
                     Callable[[HybridQuery, WorkloadEstimate],
                              WorkloadEstimate]] = None):
        self.warehouse = warehouse
        self.advisor = JoinAdvisor(warehouse.config)
        self.estimate_refiner = estimate_refiner

    # ------------------------------------------------------------------
    def explain(self, sql: str) -> Translation:
        """Parse and translate without executing."""
        return translate(parse_select(sql), self.warehouse)

    def execute(self, sql: str, algorithm: str = "auto") -> SqlResult:
        """Run ``sql`` end to end with the given (or advised) algorithm.

        Star-schema statements first run their dimension joins inside
        the database (the paper's Section 2 position on multi-table
        queries), then the hybrid join operates on the derived fact.
        """
        translation = self.explain(sql)
        query = translation.query
        if translation.needs_prejoin():
            derived_name = self._run_prejoins(translation)
            from dataclasses import replace

            query = replace(query, db_table=derived_name)
        rationale = ""
        if algorithm == "auto":
            algorithm, rationale = self._advise(query)
        join_result = algorithm_by_name(algorithm).run(
            self.warehouse, query
        )
        table = self._present(join_result.result, translation)
        return SqlResult(
            table=table,
            join_result=join_result,
            query=query,
            algorithm=algorithm,
            advisor_rationale=rationale,
        )

    def _run_prejoins(self, translation) -> str:
        """Execute the in-database dimension-join chain; returns the
        derived fact table's name."""
        database = self.warehouse.database
        current = translation.fact_table
        for index, step in enumerate(translation.prejoins):
            result_name = self._fresh_table_name(
                f"__sql_pre_{translation.fact_table}_{index}"
            )
            first = index == 0
            database.join_local(
                current,
                step.right_table,
                step.left_key,
                step.right_key,
                result_name=result_name,
                left_predicate=(
                    translation.fact_predicate if first else None
                ),
                right_predicate=step.right_predicate,
                left_projection=(
                    list(translation.fact_projection) if first else None
                ),
                right_projection=list(step.right_projection),
            )
            current = result_name
        return current

    def _fresh_table_name(self, base: str) -> str:
        """A catalog name not yet in use (repeat executions re-derive)."""
        candidate = base
        suffix = 0
        while True:
            try:
                self.warehouse.database.table_meta(candidate)
            except Exception:
                return candidate
            suffix += 1
            candidate = f"{base}_{suffix}"

    # ------------------------------------------------------------------
    def _advise(self, query: HybridQuery):
        decision = self.advise(query)
        return decision.best, decision.rationale

    def advise(self, query: HybridQuery) -> AdvisorDecision:
        """Rank the algorithms for ``query`` from the refined estimate."""
        return self.advisor.decide(self.estimate(query))

    def estimate(self, query: HybridQuery) -> WorkloadEstimate:
        """The sampled estimate, passed through the refiner hook."""
        estimate = self.sample_estimate(query)
        if self.estimate_refiner is not None:
            estimate = self.estimate_refiner(query, estimate)
        return estimate

    def sample_estimate(self, query: HybridQuery) -> WorkloadEstimate:
        """Sample-based selectivity estimation for the advisor.

        Delegates to :func:`repro.query.stats.sample_workload_estimate`
        (shared with the adaptive plane).
        """
        from repro.query.stats import sample_workload_estimate

        return sample_workload_estimate(
            self.warehouse, query, sample_rows=SAMPLE_ROWS
        )

    # ------------------------------------------------------------------
    def _present(self, result: Table, translation: Translation) -> Table:
        """Apply AVG decompositions, renames and select-order projection."""
        if translation.avg_decompositions:
            for display, (sum_name, count_name) in \
                    translation.avg_decompositions.items():
                sums = result.column(sum_name).astype(np.float64)
                counts = np.maximum(
                    result.column(count_name).astype(np.float64), 1.0
                )
                result = result.with_column(
                    Column(display, DataType.FLOAT64), sums / counts
                )
        renamed = result.rename(translation.renames)
        missing = [name for name in translation.output_names
                   if not renamed.schema.has_column(name)]
        if missing:
            raise SqlError(
                f"internal error: result lacks columns {missing}"
            )
        projected = renamed.project(translation.output_names)
        if translation.ordering:
            projected = _order_rows(projected, translation.ordering)
        if translation.limit is not None:
            projected = projected.slice(
                0, min(translation.limit, projected.num_rows)
            )
        return projected


def _order_rows(table: Table, ordering) -> Table:
    """Stable multi-key sort honouring per-key direction."""
    from repro.relational.schema import DataType

    order = np.arange(table.num_rows)
    for name, descending in reversed(list(ordering)):
        column = table.schema.column(name)
        if column.dtype is DataType.DICT_STRING:
            values = table.strings(name)[order]
        else:
            values = table.column(name)[order]
        # Rank-based keys give a stable descending sort for any dtype.
        _, inverse = np.unique(values, return_inverse=True)
        keys = -inverse if descending else inverse
        order = order[np.argsort(keys, kind="stable")]
    return table.take(order)
