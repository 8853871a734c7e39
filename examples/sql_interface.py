#!/usr/bin/env python
"""The paper's SQL interface (Section 4.1.1), reproduced.

The paper drives every join algorithm from a single SQL statement
submitted to DB2 — UDFs compute Bloom filters, contact the JEN
coordinator and stream HDFS data.  This example submits the same query
through the reproduction's SQL front end: once per algorithm, then in
"auto" mode where the advisor picks, then through the query service.
A last statement adds scalar UDFs registered on the warehouse, an IN
list, a column-to-column post-join comparison, ORDER BY and LIMIT.

Run:  python examples/sql_interface.py
"""

from repro import (
    HybridWarehouse,
    WorkloadSpec,
    default_config,
    generate_workload,
    load_paper_tables,
)
from repro.service import QueryService
from repro.sql import SqlSession


def main():
    workload = generate_workload(WorkloadSpec(
        sigma_t=0.1, sigma_l=0.4, s_t=0.2, s_l=0.1,
        t_rows=64_000, l_rows=600_000, n_keys=640,
    ))
    warehouse = load_paper_tables(
        HybridWarehouse(default_config(scale=1 / 25_000)),
        workload.t_table, workload.l_table,
    )
    session = SqlSession(warehouse)

    tt, lt = workload.t_thresholds, workload.l_thresholds
    sql = f"""
        SELECT extract_group(L.groupByExtractCol) AS url_prefix,
               COUNT(*) AS views
        FROM T, L
        WHERE T.corPred <= {tt.cor_threshold}
          AND T.indPred <= {tt.ind_threshold}
          AND L.corPred <= {lt.cor_threshold}
          AND L.indPred <= {lt.ind_threshold}
          AND T.joinKey = L.joinKey
          AND days(T.predAfterJoin) - days(L.predAfterJoin) >= 0
          AND days(T.predAfterJoin) - days(L.predAfterJoin) <= 1
        GROUP BY extract_group(L.groupByExtractCol)
    """
    print("query (the paper's Section 5 benchmark statement):")
    print(sql)

    # What does the binder make of it?
    translation = session.explain(sql)
    query = translation.query
    print("translated plan:")
    print(f"  database side: {query.db_table}  "
          f"projection={query.db_projection}")
    print(f"  HDFS side:     {query.hdfs_table}  "
          f"projection={query.hdfs_projection}")
    print(f"  join:          {query.db_join_key} = {query.hdfs_join_key}")
    print(f"  derived:       {[d.name for d in query.hdfs_derived]}")
    print(f"  group by:      {query.group_by}\n")

    print(f"{'algorithm':<18s} {'sim time':>9s}  result")
    baseline = None
    for name in ("db(BF)", "repartition(BF)", "zigzag"):
        result = session.execute(sql, algorithm=name)
        rows = sorted(result.rows())
        if baseline is None:
            baseline = rows
        agreement = "identical" if rows == baseline else "MISMATCH"
        print(f"{name:<18s} {result.simulated_seconds:8.1f}s  "
              f"{result.table.num_rows} groups ({agreement})")

    auto = session.execute(sql)
    print(f"\nauto mode picked {auto.algorithm!r}: "
          f"{auto.advisor_rationale}")
    print("\ntop URL prefixes:")
    for prefix, views in sorted(auto.rows(), key=lambda r: -r[1])[:5]:
        print(f"  {prefix:<36s} {views:>8d}")

    # The query service takes SQL text too, and answers through a ticket.
    service = QueryService(warehouse)
    ticket = service.submit(sql, tenant="analyst")
    service.drain()
    served = sorted(ticket.result().to_rows())
    print(f"\nquery service: {len(served)} groups "
          f"({'identical' if served == baseline else 'MISMATCH'})")

    # Narrower: evening weekend purchases after East-Coast clicks.  The
    # paper's region(L.ip) UDF and an hour-of-day UDF are scalar UDFs
    # registered on the warehouse (the independent-predicate column
    # plays the encoded client IP, dummy3 the purchase's second of the
    # day, predAfterJoin its day of the month); the window's lower bound
    # is a plain date comparison, and the ranking runs in SQL.
    warehouse.udfs.register("region", lambda ip: int(ip) // 100_000)
    warehouse.udfs.register("hour", lambda seconds: int(seconds) // 3_600)
    weekend = ", ".join(str(day) for day in range(30) if day % 7 in (5, 6))
    narrowed = sql.replace(
        "days(T.predAfterJoin) - days(L.predAfterJoin) >= 0",
        "T.predAfterJoin >= L.predAfterJoin"
        f" AND T.predAfterJoin IN ({weekend}) AND hour(T.dummy3) >= 18"
        " AND region(L.indPred) <= 2")
    east = session.execute(narrowed + " ORDER BY views DESC LIMIT 3")
    print("\ntop URL prefixes before evening weekend purchases "
          "(East-Coast clicks):")
    for prefix, views in east.rows():
        print(f"  {prefix:<36s} {views:>8d}")


if __name__ == "__main__":
    main()
