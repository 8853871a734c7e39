#!/usr/bin/env python
"""Quickstart: build a hybrid warehouse and run every join algorithm.

Generates the paper's synthetic workload at a small data-plane scale,
loads the transaction table into the parallel database and the click log
into simulated HDFS, runs all five join algorithms (plus the two
exact-filter baselines), checks each against the single-node oracle, and
prints execution times and data movement at paper scale.

Run:  python examples/quickstart.py
"""

from repro import (
    HybridWarehouse,
    WorkloadSpec,
    algorithm_by_name,
    build_paper_query,
    default_config,
    generate_workload,
    load_paper_tables,
    measure_selectivities,
)
from repro.testkit import oracle


def main():
    # ------------------------------------------------------------------
    # 1. Generate the paper's workload (Table 1 parameter point):
    #    sigma_T=0.1, sigma_L=0.4, S_T'=0.2, S_L'=0.1.
    # ------------------------------------------------------------------
    spec = WorkloadSpec(
        sigma_t=0.1, sigma_l=0.4, s_t=0.2, s_l=0.1,
        t_rows=64_000, l_rows=600_000, n_keys=640,
    )
    workload = generate_workload(spec)
    query = build_paper_query(workload)
    report = measure_selectivities(
        workload.t_table, workload.l_table, query
    )
    print("workload:", report.describe())

    # ------------------------------------------------------------------
    # 2. Stand up the hybrid warehouse: 30 DB2-style workers + 30 HDFS
    #    DataNodes running JEN workers, joined by a 20 Gbit switch.
    # ------------------------------------------------------------------
    warehouse = load_paper_tables(
        HybridWarehouse(default_config(scale=1 / 25_000)),
        workload.t_table, workload.l_table,
    )

    # ------------------------------------------------------------------
    # 3. Run every algorithm and compare with the single-node oracle
    #    (row multisets: a correct engine may order groups differently).
    # ------------------------------------------------------------------
    reference = oracle.oracle_execute(
        workload.t_table, workload.l_table, query
    )
    print(f"\nreference result: {reference.num_rows} groups, "
          f"{int(reference.column('count').sum())} joined pairs\n")

    print(f"{'algorithm':<18s} {'sim time':>9s} {'shuffled':>11s} "
          f"{'DB sent':>9s}  correct")
    for name in ("db", "db(BF)", "broadcast", "repartition",
                 "repartition(BF)", "zigzag", "semijoin", "perf"):
        result = algorithm_by_name(name).run(warehouse, query)
        stats = result.paper_stats()
        correct = oracle.compare_tables(result.result, reference) is None
        print(f"{name:<18s} {result.total_seconds:8.1f}s "
              f"{stats.hdfs_tuples_shuffled / 1e6:9.0f} M "
              f"{stats.db_tuples_sent / 1e6:7.1f} M  {correct}")

    # ------------------------------------------------------------------
    # 4. Look inside one run: the zigzag join's phase schedule.
    # ------------------------------------------------------------------
    zigzag = algorithm_by_name("zigzag").run(warehouse, query)
    print("\n" + zigzag.timing.breakdown())


if __name__ == "__main__":
    main()
