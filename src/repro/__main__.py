"""Top-level command line interface.

Usage::

    python -m repro demo                      # quick end-to-end tour
    python -m repro sql "SELECT ..."          # run SQL on a demo warehouse
    python -m repro sql --algorithm zigzag -f query.sql
    python -m repro serve --queries 24 --slots 8  # concurrent stream
    python -m repro advise --sigma-t 0.1 --sigma-l 0.2
    python -m repro experiments [ids...]      # same as python -m repro.bench
    python -m repro fuzz --seeds 2015 2016 --artifacts fuzz-artifacts

The demo warehouse is the paper's Table-1 workload at 1/25,000 scale,
generated on the fly.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro import (
    HybridWarehouse,
    JoinAdvisor,
    WorkloadEstimate,
    WorkloadSpec,
    algorithm_by_name,
    default_config,
    generate_workload,
    valid_algorithm_names,
)
from repro.errors import JoinError, ServiceError
from repro.sql import SqlSession
from repro.sql.lexer import SqlError
from repro.workload import build_paper_query


def _demo_warehouse(scale: float = 1 / 25_000):
    workload = generate_workload(WorkloadSpec(
        sigma_t=0.1, sigma_l=0.4, s_t=0.2, s_l=0.1,
        t_rows=max(1000, int(1.6e9 * scale)),
        l_rows=max(10_000, int(15e9 * scale)),
        n_keys=max(100, int(16e6 * scale)),
    ))
    warehouse = HybridWarehouse(default_config(scale=scale))
    warehouse.load_db_table("T", workload.t_table, distribute_on="uniqKey")
    warehouse.database.create_index("T", "idx_pred", ["corPred", "indPred"])
    warehouse.database.create_index(
        "T", "idx_bloom", ["corPred", "indPred", "joinKey"]
    )
    warehouse.load_hdfs_table("L", workload.l_table, "parquet")
    return warehouse, workload


def _cmd_demo(_args) -> int:
    warehouse, workload = _demo_warehouse()
    query = build_paper_query(workload)
    print("Table-1 workload loaded "
          f"(T={workload.t_table.num_rows} rows, "
          f"L={workload.l_table.num_rows} rows at 1/25,000 scale)\n")
    for name in ("db", "db(BF)", "broadcast", "repartition",
                 "repartition(BF)", "zigzag"):
        result = algorithm_by_name(name).run(warehouse, query)
        print(result.summary())
    print("\nzigzag phase schedule:")
    print(algorithm_by_name("zigzag").run(warehouse, query)
          .timing.breakdown())
    return 0


def _cmd_sql(args) -> int:
    if args.file:
        sql = pathlib.Path(args.file).read_text()
    elif args.query:
        sql = args.query
    else:
        print("provide a query string or --file", file=sys.stderr)
        return 2
    if args.algorithm != "auto":
        try:
            algorithm_by_name(args.algorithm)
        except JoinError as exc:
            print(f"error: {exc}", file=sys.stderr)
            print("valid algorithms: auto, "
                  + ", ".join(valid_algorithm_names()), file=sys.stderr)
            return 2
    warehouse, _workload = _demo_warehouse()
    session = SqlSession(warehouse)
    try:
        result = session.execute(sql, algorithm=args.algorithm)
    except SqlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"algorithm: {result.algorithm}"
          + (f"  ({result.advisor_rationale})"
             if result.advisor_rationale else ""))
    print(f"simulated: {result.simulated_seconds:.1f}s at paper scale\n")
    headers = result.table.schema.names
    print("  ".join(str(h) for h in headers))
    for row in result.rows()[: args.limit]:
        print("  ".join(str(value) for value in row))
    remaining = result.table.num_rows - args.limit
    if remaining > 0:
        print(f"... {remaining} more rows")
    return 0


def _cmd_serve(args) -> int:
    from repro.service import (
        AdmissionConfig,
        QueryService,
        ServiceConfig,
        StreamSpec,
        generate_query_stream,
    )

    try:
        spec = StreamSpec(
            num_queries=args.queries, templates=args.templates,
            arrival_gap=args.arrival_gap, tenants=args.tenants,
            seed=args.seed,
        )
        approx_policy = None
        if args.approx_rate is not None or args.approx_max_error is not None:
            from repro.approx import ApproxPolicy

            approx_policy = ApproxPolicy(
                sample_rate=(
                    0.25 if args.approx_rate is None else args.approx_rate
                ),
                confidence=args.approx_confidence,
                max_error=args.approx_max_error,
            )
        config = ServiceConfig(
            admission=AdmissionConfig(
                slots=args.slots, degrade_to_approx=args.approx_degrade),
            enable_adaptive=args.adaptive,
            approx_policy=approx_policy)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.algorithm != "auto":
        try:
            algorithm_by_name(args.algorithm)
        except JoinError as exc:
            print(f"error: {exc}", file=sys.stderr)
            print("valid algorithms: auto, "
                  + ", ".join(valid_algorithm_names()), file=sys.stderr)
            return 2
    warehouse, workload = _demo_warehouse()
    service = QueryService(warehouse, config)
    for item in generate_query_stream(workload, spec):
        service.submit(item.query, tenant=item.tenant, at=item.at,
                       algorithm=args.algorithm, priority=item.priority)
    print(f"replaying {args.queries} queries "
          f"({args.templates} templates, {args.tenants} tenants, "
          f"{args.slots} admission slots)\n")
    report = service.drain()
    print(report.render())
    return 0


def _cmd_report(args) -> int:
    import json

    from repro.latemat import set_late_materialization_enabled
    from repro.service import (
        AdmissionConfig,
        QueryService,
        ServiceConfig,
        StreamSpec,
        generate_query_stream,
    )

    try:
        spec = StreamSpec(
            num_queries=args.queries, templates=args.templates,
            arrival_gap=args.arrival_gap, tenants=args.tenants,
            seed=args.seed,
        )
        config = ServiceConfig(admission=AdmissionConfig(slots=args.slots))
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    warehouse, workload = _demo_warehouse()
    service = QueryService(warehouse, config)
    for item in generate_query_stream(workload, spec):
        service.submit(item.query, tenant=item.tenant, at=item.at,
                       priority=item.priority)
    previous = set_late_materialization_enabled(args.late_materialization)
    try:
        service.drain()
    finally:
        set_late_materialization_enabled(previous)
    if args.json:
        print(json.dumps(service.metrics.summary(), indent=2, sort_keys=True))
        return 0
    print(f"metrics summary after {args.queries} queries "
          f"({args.tenants} tenants"
          + (", late materialization on" if args.late_materialization
             else "")
          + ")\n")
    print(service.metrics.render_report())
    return 0


def _cmd_approx(args) -> int:
    from repro.approx import ApproxJoin

    warehouse, workload = _demo_warehouse()
    query = build_paper_query(workload)
    progressive = args.progressive or args.max_error is not None
    try:
        join = ApproxJoin(
            sample_rate=args.rate, confidence=args.confidence,
            seed=args.seed, progressive=progressive,
            max_error=args.max_error, use_bloom=args.bloom,
        )
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = join.run(warehouse, query)
    report = result.trace.metadata["approx"]

    print(f"approximate {'progressive ' if progressive else ''}join on "
          f"the demo warehouse (rate {args.rate:g}, "
          f"confidence {args.confidence:g})")
    print(f"scanned {report['blocks_scanned']}/{report['blocks_total']} "
          f"blocks ({report['fraction_scanned']:.0%}), "
          f"simulated {result.total_seconds:.1f}s"
          + (" — exact" if report["exact"] else ""))
    if progressive:
        print("\nrefinement stream:")
        for snap in join.last_snapshots:
            error = snap.max_relative_error()
            error_text = f"{error:8.1%}" if error != float("inf") \
                else "     inf"
            print(f"  {snap.blocks_scanned:3d}/{snap.blocks_total} blocks "
                  f"({snap.fraction_scanned:4.0%})  "
                  f"max relative error {error_text}")
    print("\nestimates:")
    for cell in report["cells"]:
        group = ",".join(str(v) for v in cell["group"])
        if cell["exact"]:
            interval = "exact"
        elif cell["half_width"] == float("inf"):
            interval = "no interval yet"
        else:
            interval = (f"[{cell['lower']:.1f}, {cell['upper']:.1f}] "
                        f"@ {args.confidence:.0%}")
        print(f"  {group:<24s} {cell['aggregate']:<22s} "
              f"{cell['estimate']:12.1f}  {interval}")
    if report["unsupported"]:
        print("\nno closed-form interval (sampled extremes): "
              + ", ".join(report["unsupported"]))
    return 0


def _cmd_chaos(args) -> int:
    from repro.errors import FaultError, FaultSpecError
    from repro.faults import FaultPlan
    from repro.testkit.oracle import compare_tables, oracle_execute

    try:
        plan = FaultPlan.from_spec(args.faults, seed=args.seed)
    except FaultSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name in args.algorithms:
        try:
            algorithm_by_name(name)
        except JoinError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    warehouse, workload = _demo_warehouse()
    query = build_paper_query(workload)
    expected = oracle_execute(workload.t_table, workload.l_table, query)
    print(f"chaos run: {plan}\n")
    mismatches = 0
    for name in args.algorithms:
        baseline = algorithm_by_name(name).run(warehouse, query)
        injector = warehouse.arm_faults(plan)
        try:
            faulted = algorithm_by_name(name).run(warehouse, query)
        except FaultError as exc:
            print(f"{name:<18s} UNRECOVERABLE: {type(exc).__name__}: {exc}")
            warehouse.disarm_faults()
            continue
        warehouse.disarm_faults()
        diff = compare_tables(faulted.result, expected, label=name)
        identical = diff is None
        if not identical:
            mismatches += 1
        recovery = [phase for phase in faulted.trace
                    if phase.kind == "recovery"]
        print(f"{name:<18s} fault-free={baseline.total_seconds:8.1f}s  "
              f"faulted={faulted.total_seconds:8.1f}s  "
              f"overhead={faulted.total_seconds - baseline.total_seconds:+8.1f}s  "
              f"result={'identical' if identical else 'MISMATCH'}")
        if not identical:
            print(diff)
        for phase in recovery:
            print(f"    +{phase.seconds:7.1f}s {phase.description}")
        for line in injector.report().splitlines()[1:]:
            print(f"  {line}")
        print()
    if mismatches:
        print(f"{mismatches} algorithm(s) diverged from the oracle",
              file=sys.stderr)
        return 1
    return 0


def _cmd_advise(args) -> int:
    advisor = JoinAdvisor()
    decision = advisor.decide(WorkloadEstimate(
        t_rows=args.t_rows, l_rows=args.l_rows,
        sigma_t=args.sigma_t, sigma_l=args.sigma_l,
        s_t=args.s_t, s_l=args.s_l,
        format_name=args.format,
    ))
    print(f"recommended: {decision.best}")
    print(f"rationale:   {decision.rationale}\n")
    for name, seconds in decision.ranking():
        print(f"  {name:<18s} {seconds:8.1f}s (estimated)")
    return 0


def _cmd_sweep(args) -> int:
    from repro.bench.reporting import format_series
    from repro.bench.sweep import grid, run_sweep

    points = grid(args.sigma_t, args.sigma_l, s_l=args.s_l,
                  format_name=args.format)
    result = run_sweep(points, args.algorithms)
    print(format_series(
        result.rows, "sigma_L", "seconds", "algorithm",
        title=f"simulated seconds (sigma_T={args.sigma_t}, "
              f"S_L'={args.s_l}, {args.format})",
    ))
    print("\nwinners by point:")
    for point, winner in result.winners().items():
        print(f"  {point:<40s} {winner}")
    for point, reason in result.skipped:
        print(f"  skipped {point.label()}: {reason}")
    return 0


def _cmd_experiments(args) -> int:
    from repro.bench.__main__ import main as bench_main

    argv = list(args.ids)
    if args.figures:
        from repro.bench import EXPERIMENTS, WarehouseCache
        from repro.bench.figures import render_experiment

        cache = WarehouseCache()
        for experiment_id in (argv or list(EXPERIMENTS)):
            result = EXPERIMENTS[experiment_id].run(cache)
            print(render_experiment(result))
            print()
        return 0
    return bench_main(argv)


def _cmd_fuzz(args) -> int:
    from repro.testkit.fuzz import run_fuzz

    report = run_fuzz(
        seeds=args.seeds,
        cells_per_seed=args.cells_per_seed,
        rows_scale=args.rows_scale,
        include_edge_cases=args.edge_cases,
        artifact_dir=args.artifacts,
        shrink_budget=args.shrink_budget,
    )
    print(report.render())
    return 0 if report.ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Hybrid-warehouse joins (EDBT 2015 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("demo", help="run every algorithm on the "
                                       "Table-1 workload")

    sql_parser = subparsers.add_parser("sql", help="run a SQL query on a "
                                                   "demo warehouse")
    sql_parser.add_argument("query", nargs="?", help="SQL text")
    sql_parser.add_argument("--file", "-f", help="read SQL from a file")
    sql_parser.add_argument("--algorithm", default="auto",
                            help="join algorithm (default: auto)")
    sql_parser.add_argument("--limit", type=int, default=20,
                            help="result rows to print")

    serve_parser = subparsers.add_parser(
        "serve", help="replay a concurrent query stream through the "
                      "service plane"
    )
    serve_parser.add_argument("--queries", type=int, default=24,
                              help="stream length")
    serve_parser.add_argument("--templates", type=int, default=4,
                              help="distinct query templates")
    serve_parser.add_argument("--tenants", type=int, default=2)
    serve_parser.add_argument("--slots", type=int, default=8,
                              help="admission slots (max in-flight)")
    serve_parser.add_argument("--arrival-gap", type=float, default=5.0,
                              help="simulated seconds between arrivals")
    serve_parser.add_argument("--algorithm", default="auto")
    serve_parser.add_argument("--adaptive", action="store_true",
                              help="run auto queries through the "
                                   "adaptive (mid-query re-optimizing) "
                                   "path")
    serve_parser.add_argument("--seed", type=int, default=11)
    serve_parser.add_argument(
        "--approx-degrade", action="store_true",
        help="shed overload to the approximate tier instead of "
             "rejecting best-effort queries")
    serve_parser.add_argument(
        "--approx-rate", type=float, default=None,
        help="degraded-tier block sampling rate (default 0.25)")
    serve_parser.add_argument(
        "--approx-confidence", type=float, default=0.95,
        help="degraded-tier interval confidence")
    serve_parser.add_argument(
        "--approx-max-error", type=float, default=None,
        help="degraded-tier relative-error target (enables "
             "progressive refinement until met)")

    report_parser = subparsers.add_parser(
        "report", help="replay a query stream and summarize the metrics "
                       "registry (per-tenant latency, cache hit rates, "
                       "bytes shipped)"
    )
    report_parser.add_argument("--queries", type=int, default=24,
                               help="stream length")
    report_parser.add_argument("--templates", type=int, default=4,
                               help="distinct query templates")
    report_parser.add_argument("--tenants", type=int, default=2)
    report_parser.add_argument("--slots", type=int, default=8,
                               help="admission slots (max in-flight)")
    report_parser.add_argument("--arrival-gap", type=float, default=5.0,
                               help="simulated seconds between arrivals")
    report_parser.add_argument("--seed", type=int, default=11)
    report_parser.add_argument("--late-materialization",
                               action="store_true",
                               help="run the stream with thin-row "
                                    "shipping + payload stitch enabled")
    report_parser.add_argument("--json", action="store_true",
                               help="emit the summary as JSON")

    approx_parser = subparsers.add_parser(
        "approx", help="run a sampled (approximate) join on the demo "
                       "warehouse and print confidence intervals"
    )
    approx_parser.add_argument("--rate", type=float, default=0.25,
                               help="fraction of HDFS blocks to scan")
    approx_parser.add_argument("--confidence", type=float, default=0.95,
                               help="interval confidence "
                                    "(0.90, 0.95 or 0.99)")
    approx_parser.add_argument("--seed", type=int, default=11,
                               help="block-sampling seed")
    approx_parser.add_argument("--progressive", action="store_true",
                               help="stream refining snapshots block "
                                    "batch by block batch")
    approx_parser.add_argument("--max-error", type=float, default=None,
                               help="stop early once every interval's "
                                    "relative half-width is below this "
                                    "(implies --progressive)")
    approx_parser.add_argument("--bloom", action="store_true",
                               help="push a bloom filter of the EDW "
                                    "join keys into the HDFS scan")

    chaos_parser = subparsers.add_parser(
        "chaos", help="run the workload under an injected fault plan and "
                      "report recovery actions + time overhead"
    )
    chaos_parser.add_argument(
        "--faults", required=True,
        help="fault spec, e.g. 'crash:w7@scan,slow:w3x5,drop:shuffle:0.01'",
    )
    chaos_parser.add_argument(
        "--algorithms", nargs="+",
        default=["zigzag", "repartition(BF)", "db(BF)", "broadcast"],
    )
    chaos_parser.add_argument("--seed", type=int, default=11)

    advise_parser = subparsers.add_parser(
        "advise", help="rank the algorithms for estimated selectivities"
    )
    advise_parser.add_argument("--sigma-t", type=float, required=True)
    advise_parser.add_argument("--sigma-l", type=float, required=True)
    advise_parser.add_argument("--s-t", type=float, default=0.2)
    advise_parser.add_argument("--s-l", type=float, default=0.1)
    advise_parser.add_argument("--t-rows", type=float, default=1.6e9)
    advise_parser.add_argument("--l-rows", type=float, default=15e9)
    advise_parser.add_argument("--format", default="parquet")

    sweep_parser = subparsers.add_parser(
        "sweep", help="sweep selectivities over chosen algorithms"
    )
    sweep_parser.add_argument("--sigma-t", type=float, nargs="+",
                              default=[0.1])
    sweep_parser.add_argument("--sigma-l", type=float, nargs="+",
                              default=[0.01, 0.1, 0.2])
    sweep_parser.add_argument("--s-l", type=float, default=0.1)
    sweep_parser.add_argument("--format", default="parquet")
    sweep_parser.add_argument(
        "--algorithms", nargs="+",
        default=["db(BF)", "repartition(BF)", "zigzag"],
    )

    experiments_parser = subparsers.add_parser(
        "experiments", help="reproduce the paper's tables and figures"
    )
    experiments_parser.add_argument("ids", nargs="*")
    experiments_parser.add_argument("--figures", action="store_true",
                                    help="render ASCII bar charts")

    fuzz_parser = subparsers.add_parser(
        "fuzz", help="differential-fuzz sampled configs against the "
                     "single-node oracle; failures are shrunk to "
                     "minimal repros"
    )
    fuzz_parser.add_argument("--seeds", type=int, nargs="+",
                             default=[2015], help="data-case seeds")
    fuzz_parser.add_argument("--cells-per-seed", type=int, default=10,
                             help="sampled config cells per data case")
    fuzz_parser.add_argument("--rows-scale", type=float, default=1.0,
                             help="scale factor for generated table "
                                  "sizes (CI smoke uses < 1)")
    fuzz_parser.add_argument("--edge-cases", action="store_true",
                             help="also fuzz the named edge-case tables")
    fuzz_parser.add_argument("--artifacts",
                             help="directory for failing-seed artifacts "
                                  "(JSON record + repro snippet)")
    fuzz_parser.add_argument("--shrink-budget", type=int, default=150,
                             help="max executions per shrink")

    args = parser.parse_args(argv)
    handlers = {
        "demo": _cmd_demo,
        "sql": _cmd_sql,
        "serve": _cmd_serve,
        "report": _cmd_report,
        "approx": _cmd_approx,
        "chaos": _cmd_chaos,
        "advise": _cmd_advise,
        "sweep": _cmd_sweep,
        "experiments": _cmd_experiments,
        "fuzz": _cmd_fuzz,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
