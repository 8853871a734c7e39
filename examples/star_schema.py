#!/usr/bin/env python
"""Multi-table queries: star-schema pre-joins in the database.

The paper's scope is the two-way hybrid join; for queries over more
tables it notes (Section 2) that "we need to rely on the query optimizer
in the database to decide on the right join orders, since queries are
issued at the database side".  This example shows that pattern: a fact
table and a product dimension both live in the EDW, the dimension join
runs entirely in the database (ParallelDatabase.join_local), and the
hybrid zigzag join then correlates the *enriched* facts with the HDFS
click log.  Step 3 hands the whole statement to the SQL front end,
which plans the same dimension join from the FROM list.

Query, in SQL terms::

    SELECT extract_group(L.groupByExtractCol), COUNT(*)
    FROM   F JOIN P ON F.product_id = P.product_id   -- in the EDW
         , L                                          -- on HDFS
    WHERE  P.category IN (0, 1, 2)
      AND  F.joinKey = L.joinKey
      AND  days(F.date) - days(L.date) BETWEEN 0 AND 1
    GROUP BY extract_group(L.groupByExtractCol)

Run:  python examples/star_schema.py
"""

from dataclasses import replace

import numpy as np

from repro import (
    HybridWarehouse,
    WorkloadSpec,
    algorithm_by_name,
    build_paper_query,
    default_config,
    generate_workload,
)
from repro.relational.expressions import TruePredicate, compare
from repro.relational.schema import Column, DataType, Schema
from repro.relational.table import Table
from repro.sql import SqlSession

NUM_PRODUCTS = 500


def main():
    workload = generate_workload(WorkloadSpec(
        sigma_t=0.3, sigma_l=0.3, s_t=0.3, s_l=0.15,
        t_rows=64_000, l_rows=600_000, n_keys=640,
    ))

    # The fact table: generated transactions plus a product foreign key.
    fact = workload.t_table.with_column(
        Column("product_id", DataType.INT32),
        (workload.t_table.column("dummy2") % NUM_PRODUCTS).astype(np.int32),
    )
    # The dimension: products with categories, 0..19.
    dimension = Table(
        Schema([Column("product_id", DataType.INT32),
                Column("category", DataType.INT32)]),
        {
            "product_id": np.arange(NUM_PRODUCTS, dtype=np.int32),
            "category": (np.arange(NUM_PRODUCTS) % 20).astype(np.int32),
        },
    )

    warehouse = HybridWarehouse(default_config(scale=1 / 25_000))
    warehouse.load_db_table("F", fact, distribute_on="uniqKey")
    warehouse.load_db_table("P", dimension, distribute_on="product_id")
    warehouse.load_hdfs_table("L", workload.l_table, "parquet")

    # Step 1: the dimension join, entirely inside the EDW.
    meta, stats = warehouse.database.join_local(
        "F", "P", "product_id", "product_id",
        result_name="F_enriched",
        right_predicate=compare("category", "<=", 2),
        left_projection=["joinKey", "predAfterJoin"],
        right_projection=["category"],
    )
    print("in-database dimension join:")
    print(f"  {stats.probe_tuples} facts x {stats.build_tuples} "
          f"filtered dimension rows -> {meta.num_rows} enriched facts "
          f"({meta.num_rows / fact.num_rows:.1%} of F)\n")

    # Step 2: the hybrid join against the click log, on the derived fact.
    query = replace(
        build_paper_query(workload),
        db_table="F_enriched",
        db_predicate=TruePredicate(),   # the dimension filter already ran
    )
    print(f"{'algorithm':<18s} {'sim time':>9s}  groups")
    baseline = None
    for name in ("db(BF)", "zigzag"):
        result = algorithm_by_name(name).run(warehouse, query)
        rows = sorted(result.result.to_rows())
        if baseline is None:
            baseline = rows
        status = "identical" if rows == baseline else "MISMATCH"
        print(f"{name:<18s} {result.total_seconds:8.1f}s  "
              f"{result.result.num_rows} ({status})")

    # Step 3: the same statement through the SQL front end, which plans
    # the dimension join into a derived fact table of its own.
    thresholds = workload.l_thresholds
    sql = f"""
        SELECT extract_group(L.groupByExtractCol) AS url_prefix,
               COUNT(*) AS views
        FROM F, P, L
        WHERE F.product_id = P.product_id
          AND P.category IN (0, 1, 2)
          AND F.joinKey = L.joinKey
          AND L.corPred <= {thresholds.cor_threshold}
          AND L.indPred <= {thresholds.ind_threshold}
          AND days(F.predAfterJoin) - days(L.predAfterJoin) >= 0
          AND days(F.predAfterJoin) - days(L.predAfterJoin) <= 1
        GROUP BY extract_group(L.groupByExtractCol)
        ORDER BY views DESC
        LIMIT 5
    """
    top = SqlSession(warehouse).execute(sql, algorithm="zigzag")
    status = ("identical" if top.rows() == sorted(
        baseline, key=lambda r: (-r[1], r[0]))[:5] else "MISMATCH")
    print(f"\nthe statement as SQL ({top.algorithm}): top five {status}")
    print("top url prefixes for category <= 2 purchases:")
    for prefix, views in top.rows():
        print(f"  {prefix:<36s} {views:>8d}")


if __name__ == "__main__":
    main()
