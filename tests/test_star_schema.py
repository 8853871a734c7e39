"""Tests for in-database pre-joins (star-schema support, paper §2)."""

from unittest import mock

import numpy as np
import pytest

from repro import algorithm_by_name
from repro.edw.database import DbJoinRunStats
from repro.errors import CatalogError
from repro.kernels.joinindex import JoinBuildIndex, probe_join
from repro.query import plan
from repro.relational.expressions import TruePredicate, compare
from repro.relational.operators import joined_rows
from repro.relational.schema import Column, DataType, Schema
from repro.relational.table import Table
from repro.testkit import oracle
from tests.conftest import build_test_warehouse
from tests.test_join_pipeline import assert_bit_equal


NUM_PRODUCTS = 200


def product_dimension():
    """A small dimension table living in the database."""
    schema = Schema([
        Column("product_id", DataType.INT32),
        Column("category", DataType.INT32),
    ])
    return Table(schema, {
        "product_id": np.arange(NUM_PRODUCTS, dtype=np.int32),
        "category": (np.arange(NUM_PRODUCTS) % 10).astype(np.int32),
    })


def fact_table(paper_workload):
    """The generated T with a product_id foreign key appended."""
    t = paper_workload.t_table
    product_ids = (t.column("dummy2") % NUM_PRODUCTS).astype(np.int32)
    return t.with_column(Column("product_id", DataType.INT32), product_ids)


def _reference_star_join(fact, dimension):
    """Single-node fact-dimension join keeping one key copy (the
    fact's), columns in ``join_local``'s order: dimension first."""
    joined = oracle.dict_hash_join(
        fact, dimension.rename({"product_id": "__rhs"}),
        "product_id", "__rhs",
    )
    return joined.project(
        [name for name in dimension.schema.names if name != "product_id"]
        + list(fact.schema.names)
    )


def products_where(predicate):
    """The dimension rows ``predicate`` keeps, selected with plain numpy
    (as the oracle filters)."""
    dimension = product_dimension()
    keep = np.asarray(predicate.evaluate(dimension), dtype=bool)
    return Table(dimension.schema, {
        name: dimension.column(name)[keep]
        for name in dimension.schema.names
    })


def enriched_fact(paper_workload, dimension_predicate):
    """The single-node pre-joined fact table the hybrid star queries
    read: the fact's predicate columns joined with the kept products."""
    return _reference_star_join(
        fact_table(paper_workload).project(
            ["joinKey", "predAfterJoin", "corPred", "indPred", "product_id"]
        ),
        products_where(dimension_predicate),
    )


@pytest.fixture()
def star_warehouse(paper_workload):
    warehouse = build_test_warehouse(paper_workload)
    # The generated T is already loaded as "T"; load the starred fact and
    # the dimension alongside it.
    warehouse.load_db_table("F", fact_table(paper_workload),
                            distribute_on="uniqKey")
    warehouse.load_db_table("P", product_dimension(),
                            distribute_on="product_id")
    return warehouse


class TestJoinLocal:
    def test_prejoin_matches_single_node(self, star_warehouse,
                                         paper_workload):
        meta, stats = star_warehouse.database.join_local(
            "F", "P", "product_id", "product_id",
            result_name="F_enriched",
            right_predicate=compare("category", "<=", 2),
            left_projection=["joinKey", "predAfterJoin", "product_id"],
            right_projection=["category"],
        )
        fact = fact_table(paper_workload)
        dimension = products_where(compare("category", "<=", 2))
        expected = _reference_star_join(
            fact.project(["joinKey", "predAfterJoin", "product_id"]),
            dimension,
        )
        assert meta.num_rows == expected.num_rows
        assert stats == DbJoinRunStats(
            build_tuples=dimension.num_rows, probe_tuples=fact.num_rows,
            join_output_tuples=expected.num_rows,
            result_rows=expected.num_rows,
        )
        gathered = star_warehouse.gather_db_table("F_enriched")
        assert gathered.schema == expected.schema
        oracle.assert_equivalent(gathered, expected)

    @pytest.mark.parametrize("group_rows", [plan.GROUP_BUILD_ROWS, 60])
    def test_each_worker_keeps_its_partition(self, star_warehouse,
                                             group_rows):
        """The slot-keyed join leaves on every worker the rows its own
        join gave it, also when the build rows join in several groups
        of at most ``GROUP_BUILD_ROWS``."""
        database = star_warehouse.database
        with mock.patch.object(plan, "GROUP_BUILD_ROWS", group_rows), \
                mock.patch.object(plan, "JoinBuildIndex",
                                  wraps=JoinBuildIndex) as built:
            database.join_local(
                "F", "P", "product_id", "product_id", result_name="F4",
                left_projection=["joinKey", "product_id"],
                right_projection=["category"])
        assert (built.call_count > 1) == (group_rows < NUM_PRODUCTS)
        sides = [
            database._repartition(database.filter_project(
                name, TruePredicate(), projection)[0], "product_id")
            for name, projection in (("F", ["joinKey", "product_id"]),
                                     ("P", ["category", "product_id"]))]
        for worker, fact, dimension in zip(database.workers, *sides):
            build = dimension.rename({"product_id": "__rhs_join_key"})
            build_idx, probe_idx = probe_join(
                build.column("__rhs_join_key"), fact.column("product_id"))
            assert_bit_equal(worker.partition("F4"), joined_rows(
                build, fact, build_idx, probe_idx,
                names=["category", "joinKey", "product_id"]))

    def test_duplicate_result_name(self, star_warehouse):
        star_warehouse.database.join_local(
            "F", "P", "product_id", "product_id", result_name="X",
            left_projection=["joinKey"], right_projection=["category"],
        )
        with pytest.raises(CatalogError, match="already exists"):
            star_warehouse.database.join_local(
                "F", "P", "product_id", "product_id", result_name="X",
                left_projection=["joinKey"],
                right_projection=["category"],
            )

    def test_key_appended_to_projection(self, star_warehouse):
        meta, _stats = star_warehouse.database.join_local(
            "F", "P", "product_id", "product_id",
            result_name="keyless",
            left_projection=["joinKey"],       # no product_id given
            right_projection=["category"],
        )
        assert meta.schema.has_column("product_id")

    def test_register_partitioned_table_validates(self, star_warehouse):
        with pytest.raises(CatalogError, match="partitions"):
            star_warehouse.database.register_partitioned_table(
                "bad", [], distribute_on="x"
            )


class TestStarHybridJoin:
    def test_hybrid_join_over_derived_fact(self, star_warehouse,
                                           paper_workload, paper_query):
        """Pre-join F with P in the database, then run the hybrid join
        against the click log — and cross-check against a single-node
        computation of the whole three-table query."""
        database = star_warehouse.database
        database.join_local(
            "F", "P", "product_id", "product_id",
            result_name="F2",
            right_predicate=compare("category", "<=", 2),
            left_projection=["joinKey", "predAfterJoin", "corPred",
                             "indPred"],
            right_projection=["category"],
        )
        from dataclasses import replace
        query = replace(paper_query, db_table="F2")
        result = algorithm_by_name("zigzag").run(star_warehouse, query)

        # Single-node three-table reference.
        enriched = enriched_fact(paper_workload,
                                 compare("category", "<=", 2))
        oracle.assert_equivalent(
            result.result,
            oracle.oracle_execute(enriched, paper_workload.l_table, query),
        )

    def test_all_algorithms_agree_on_star(self, star_warehouse,
                                          paper_workload, paper_query):
        database = star_warehouse.database
        database.join_local(
            "F", "P", "product_id", "product_id",
            result_name="F3",
            right_predicate=compare("category", "==", 4),
            left_projection=["joinKey", "predAfterJoin", "corPred",
                             "indPred"],
            right_projection=[],
        )
        from dataclasses import replace
        query = replace(paper_query, db_table="F3")
        enriched = enriched_fact(paper_workload,
                                 compare("category", "==", 4))
        expected = oracle.oracle_execute(
            enriched, paper_workload.l_table, query)
        for name in ("zigzag", "repartition(BF)", "db(BF)", "broadcast"):
            result = algorithm_by_name(name).run(star_warehouse, query)
            oracle.assert_equivalent(result.result, expected, label=name)
