"""A/A checker: ``python -m benchmarks.e2e.repeat``.

Runs the timed pass of every workload as two back-to-back sets on the
same code — each set one run per seed, as the driver does — and prints,
per workload and end-to-end metric, the two medians, their relative gap
and each set's inter-quartile spread as a share of its median.  Exits
non-zero when a gap or a spread exceeds the metric's bound, or an op
failed.  A bound is sound when it is at least twice the gap seen here
and a spread is below a third of it; ``setup_s`` is held to its gap
only, since its spread across seeds includes the seeds' data.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from typing import Dict, List, Optional

from benchmarks.e2e.cli import OUT_DIR, run_child
from benchmarks.e2e.harness import relative_spread
from benchmarks.e2e.metrics import END_TO_END
from benchmarks.e2e.workloads import WORKLOADS

RunSet = Dict[str, List[Dict[str, object]]]


def run_set(workloads: List[str], seeds: List[int], seconds: float
            ) -> RunSet:
    """One timed run per (workload, seed); payloads by workload."""
    payloads: RunSet = {}
    for workload in workloads:
        for seed in seeds:
            started = time.perf_counter()
            payload = run_child(workload, seed, seconds, "timed")
            payload["run_wall_s"] = time.perf_counter() - started
            payloads.setdefault(workload, []).append(payload)
            print(f"  {workload} seed {seed}: "
                  f"{payload['run_wall_s']:.1f} s", flush=True)
    return payloads


def compare_sets(first: RunSet, second: RunSet) -> List[Dict[str, object]]:
    """One row per (workload, metric): medians, gap, spreads, verdict."""
    rows = []
    for workload, first_runs in first.items():
        second_runs = second[workload]
        for payload in first_runs + second_runs:
            if payload["quick"]:
                raise ValueError(
                    "quick payloads measure smoke sizes; the A/A check "
                    "refuses them")
        failed = sum(p["failed"] for p in first_runs + second_runs)
        for metric in END_TO_END:
            values = [[p["end_to_end"][metric.name] for p in runs]
                      for runs in (first_runs, second_runs)]
            medians = [statistics.median(v) for v in values]
            worse = (medians[1] - medians[0]) / medians[0]
            if metric.better == "higher":
                worse = -worse
            spreads = [relative_spread(v) if len(v) > 1 else 0.0
                       for v in values]
            within = worse <= metric.bound and failed == 0
            if metric.name != "setup_s":
                within = within and max(spreads) <= metric.bound
            rows.append({
                "workload": workload, "metric": metric.name,
                "bound": metric.bound, "medians": medians,
                "gap": abs(worse), "worse_by": worse, "spreads": spreads,
                "within": within,
            })
    return rows


def render(rows: List[Dict[str, object]]) -> str:
    """The comparison as a text table."""
    lines = [f"{'workload':<20s} {'metric':<25s} {'median A':>12s} "
             f"{'median B':>12s} {'gap':>7s} {'spread A':>9s} "
             f"{'spread B':>9s} {'bound':>6s}"]
    for row in rows:
        lines.append(
            f"{row['workload']:<20s} {row['metric']:<25s} "
            f"{row['medians'][0]:>12.5g} {row['medians'][1]:>12.5g} "
            f"{row['gap']:>7.2%} {row['spreads'][0]:>9.2%} "
            f"{row['spreads'][1]:>9.2%} {row['bound']:>6.0%}"
            + ("" if row["within"] else "  EXCEEDED"))
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e.repeat", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10,
                        help="runs (seeds 1..N) per workload and set")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--workload", action="append",
                        choices=[w.name for w in WORKLOADS])
    args = parser.parse_args(argv)

    workloads = args.workload or [w.name for w in WORKLOADS]
    seeds = list(range(1, args.runs + 1))
    sets = []
    for label in "AB":
        print(f"set {label}", flush=True)
        sets.append(run_set(workloads, seeds, args.seconds))
    rows = compare_sets(*sets)
    print(render(rows))
    slowest = max(p["run_wall_s"] for runs in sets
                  for payloads in runs.values() for p in payloads)
    print(f"slowest run: {slowest:.1f} s")
    (OUT_DIR / "repeat.json").write_text(
        json.dumps({"rows": rows, "sets": sets}, indent=1))
    return 0 if all(row["within"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
