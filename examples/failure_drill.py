#!/usr/bin/env python
"""Operational drill: worker failures and memory pressure.

Two things a production engine must survive that the paper only sketches
(the coordinator "is responsible for managing the JEN workers and their
state", Section 4.1; spilling is stated future work, Section 4.4):

1. JEN workers die mid-campaign — the coordinator re-plans block
   assignments over the survivors (replication keeps most reads local)
   and the join still returns the exact answer;
2. the build side stops fitting in worker memory — Grace-hash spilling
   fragments the join, costing disk I/O but never correctness.

Run:  python examples/failure_drill.py
"""

from dataclasses import replace

from repro import (
    HybridWarehouse,
    WorkloadSpec,
    algorithm_by_name,
    build_paper_query,
    default_config,
    generate_workload,
)
from repro.sim.gantt import render_gantt
from repro.testkit import oracle

SCALE = 1 / 25_000


def build(workload, config):
    warehouse = HybridWarehouse(config)
    warehouse.load_db_table("T", workload.t_table, distribute_on="uniqKey")
    warehouse.database.create_index(
        "T", "idx_bloom", ["corPred", "indPred", "joinKey"]
    )
    warehouse.load_hdfs_table("L", workload.l_table, "parquet")
    return warehouse


def main():
    workload = generate_workload(WorkloadSpec(
        sigma_t=0.1, sigma_l=0.4, s_t=0.2, s_l=0.1,
        t_rows=64_000, l_rows=600_000, n_keys=640,
    ))
    query = build_paper_query(workload)
    truth = oracle.oracle_execute(workload.t_table, workload.l_table, query)
    config = default_config(scale=SCALE)

    # ------------------------------------------------------------------
    print("=== drill 1: JEN workers failing ===")
    warehouse = build(workload, config)
    baseline = algorithm_by_name("zigzag").run(warehouse, query)
    plan = warehouse.jen.coordinator.plan_scan("L")
    print(f"healthy:  30 workers, locality "
          f"{plan.locality_fraction():.0%}, "
          f"{baseline.total_seconds:.1f}s simulated")

    for victim in (3, 11, 27):
        warehouse.jen.fail_worker(victim)
    degraded = algorithm_by_name("zigzag").run(warehouse, query)
    plan = warehouse.jen.coordinator.plan_scan("L")
    correct = oracle.compare_tables(degraded.result, truth) is None
    print(f"3 dead:   {warehouse.jen.num_workers} workers, locality "
          f"{plan.locality_fraction():.0%}, "
          f"{degraded.total_seconds:.1f}s simulated, "
          f"result correct: {correct}")

    # ------------------------------------------------------------------
    print("\n=== drill 2: memory pressure (Grace-hash spilling) ===")
    for budget, label in ((0.0, "unlimited"), (5e6, "5M rows/worker")):
        constrained = build(
            workload, replace(config, jen_memory_budget_rows=budget)
        )
        result = algorithm_by_name("repartition").run(constrained, query)
        correct = oracle.compare_tables(result.result, truth) is None
        spilled = result.paper_stats().spilled_tuples / 1e6
        print(f"budget {label:<16s} spilled {spilled:8.1f} M tuples, "
              f"{result.total_seconds:6.1f}s, correct: {correct}")

    # ------------------------------------------------------------------
    print("\n=== the degraded zigzag schedule, as a Gantt chart ===")
    print(render_gantt(degraded.timing, width=52))
    print("\ncritical path:", " -> ".join(degraded.critical_path()))


if __name__ == "__main__":
    main()
