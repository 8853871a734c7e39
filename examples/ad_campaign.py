#!/usr/bin/env python
"""The paper's Section 2 scenario, end to end.

A retailer stores sales transactions in its EDW and click logs in HDFS,
and asks: *how many views did each URL prefix get from East-Coast
customers who bought Canon cameras within one day of their visit?*

This example builds that query explicitly — local predicates on both
tables (including a scalar region() UDF on the click log), the uid
equi-join, the one-day date window and the per-URL-prefix count — lets
the advisor pick an algorithm, runs it, and prints the top URL prefixes.
It closes with an early answer from the approximate tier: a sample of
the click-log blocks, with confidence intervals on each prefix's views
and on its average client code.

Run:  python examples/ad_campaign.py
"""

from dataclasses import replace

import numpy as np

from repro import (
    HybridWarehouse,
    JoinAdvisor,
    WorkloadEstimate,
    WorkloadSpec,
    algorithm_by_name,
    default_config,
    generate_workload,
)
from repro.approx import ApproxJoin
from repro.edw.udf import _extract_group
from repro.query.query import DerivedColumn, HybridQuery
from repro.relational.aggregates import AggregateSpec
from repro.relational.expressions import BetweenDayDiff, UdfPredicate, compare


def region_is_east_coast(ip_codes: np.ndarray) -> np.ndarray:
    """The paper's region(L.ip) = 'East Coast' UDF.

    We reuse the log's independent predicate column as an encoded IP
    octet; "East Coast" is a contiguous range of it.
    """
    return ip_codes < 400_000


def main():
    # Transactions in the database; click logs on HDFS.  The generated
    # corPred column plays the product category ("Canon Camera" is a
    # range of category codes) and indPred the encoded client IP.
    workload = generate_workload(WorkloadSpec(
        sigma_t=0.08, sigma_l=0.35, s_t=0.25, s_l=0.12,
        t_rows=64_000, l_rows=600_000, n_keys=640,
    ))

    warehouse = HybridWarehouse(default_config(scale=1 / 25_000))
    warehouse.load_db_table("transactions", workload.t_table,
                            distribute_on="uniqKey")
    warehouse.database.create_index(
        "transactions", "idx_bloom", ["corPred", "indPred", "joinKey"]
    )
    warehouse.load_hdfs_table("clicks", workload.l_table, "parquet")

    query = HybridQuery(
        db_table="transactions",
        hdfs_table="clicks",
        db_join_key="joinKey",        # T.uid
        hdfs_join_key="joinKey",      # L.uid
        db_projection=("joinKey", "predAfterJoin"),
        hdfs_projection=("joinKey", "predAfterJoin", "groupByExtractCol",
                         "indPred"),
        db_predicate=(
            # category = 'Canon Camera' plus a store-level filter.
            compare("corPred", "<=", workload.t_thresholds.cor_threshold)
            & compare("indPred", "<=", workload.t_thresholds.ind_threshold)
        ),
        hdfs_predicate=(
            compare("corPred", "<=", workload.l_thresholds.cor_threshold)
            & UdfPredicate("region_east_coast", "indPred",
                           region_is_east_coast)
        ),
        hdfs_derived=(
            DerivedColumn(
                name="urlPrefix",
                source="groupByExtractCol",
                udf_name="extract_group",
                function=_extract_group,
            ),
        ),
        post_join_predicate=BetweenDayDiff(
            "t_predAfterJoin", "l_predAfterJoin", low=0, high=1
        ),
        group_by=("l_urlPrefix",),
        aggregates=(AggregateSpec("count"),),
    )

    # Let the advisor choose where the join should run.
    advisor = JoinAdvisor(warehouse.config)
    decision = advisor.decide(WorkloadEstimate(
        t_rows=1.6e9, l_rows=15e9,
        sigma_t=0.08, sigma_l=0.35 * 0.4,  # region() cuts L' further
        s_t=0.25, s_l=0.12,
    ))
    print(f"advisor picks: {decision.best}  ({decision.rationale})")
    for name, estimate in decision.ranking():
        print(f"  est {name:<16s} {estimate:8.1f}s")

    result = algorithm_by_name(decision.best).run(warehouse, query)
    print(f"\nsimulated execution: {result.total_seconds:.1f}s "
          f"at paper scale\n")

    # Top URL prefixes by correlated views.
    rows = sorted(result.result.to_rows(), key=lambda r: -r[1])[:10]
    print(f"{'url_prefix':<34s} {'views':>8s}")
    for prefix, views in rows:
        print(f"{prefix:<34s} {views:>8d}")

    # An early answer: a quarter of the click-log blocks, drawn on until
    # every interval is within 25% of its estimate (or the log is
    # exhausted), with each prefix's average client code beside its
    # views.
    sampled = replace(query, aggregates=(
        AggregateSpec("count", alias="views"),
        AggregateSpec("avg", "l_indPred", alias="avg_ip"),
    ))
    early = ApproxJoin(sample_rate=0.25, max_error=0.25).run(
        warehouse, sampled)
    estimate = early.approx.estimate
    print(f"\nearly answer from {estimate.blocks_scanned}/"
          f"{estimate.blocks_total} blocks "
          f"(simulated {early.total_seconds:.1f}s):")
    for prefix, _views in rows[:3]:
        views = estimate.cells[((prefix,), "views")]
        average = estimate.cells[((prefix,), "avg_ip")]
        print(f"{prefix:<34s} {views.estimate:8.0f} +/- "
              f"{views.half_width:5.0f}   avg ip code "
              f"{average.estimate:8.0f} +/- {average.half_width:6.0f}")


if __name__ == "__main__":
    main()
