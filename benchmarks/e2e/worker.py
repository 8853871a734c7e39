"""Child process of the benchmark: one workload, one payload.

``python -m benchmarks.e2e`` starts one of these per workload (fresh
interpreter, ``PYTHONHASHSEED=0``, never two at once) and reads the
JSON payload off the last line of its standard output.
"""

from __future__ import annotations

import argparse
import json
import sys

from benchmarks.e2e import harness
from benchmarks.e2e.workloads import workload_by_name


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--passes", choices=("timed", "traced", "both"),
                        required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace-path")
    args = parser.parse_args(argv)

    if args.quick:
        protocol = harness.QUICK
    elif args.passes == "traced":
        protocol = harness.TRACE_ONLY
    else:
        protocol = harness.MEASURE
    payload = harness.run_workload(
        workload_by_name(args.workload), args.seed,
        0.0 if args.quick else args.seconds, protocol,
        timed=args.passes != "traced", traced=args.passes != "timed",
        trace_path=args.trace_path,
    )
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
