"""``python -m benchmarks.e2e``: run the benchmark and print it.

Two ways in:

* the full command (no ``--trace``) runs every workload — or the one
  named by ``--workload`` — timed *and* traced, prints every metric by
  name with its unit, and writes ``out/result.json``;
* the driver form ``--workload NAME --seed N --seconds S --trace 0|1``
  runs one pass of one workload and prints, as the last line, the one
  JSON object ``BENCHMARK.json``'s contract asks for.

Either way each workload runs alone in a fresh child process.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional

from benchmarks.e2e import REPO_ROOT
from benchmarks.e2e.metrics import END_TO_END, PER_LAYER, units
from benchmarks.e2e.workloads import WORKLOADS

OUT_DIR = REPO_ROOT / "benchmarks" / "e2e" / "out"

#: Wall seconds of a timed window when ``--seconds`` is not given.
DEFAULT_SECONDS = 15.0
#: The contract allows a run 180 s; a child still running by then is
#: stopped so the command can fail inside that limit.
CHILD_TIMEOUT_S = 170.0


def run_child(workload: str, seed: int, seconds: float, passes: str,
              quick: bool = False) -> Dict[str, object]:
    """Run one workload in a fresh interpreter; return its payload."""
    OUT_DIR.mkdir(exist_ok=True)
    command = [
        sys.executable, "-m", "benchmarks.e2e.worker",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--passes", passes,
    ]
    if passes != "timed":
        command += ["--trace-path", str(OUT_DIR / f"trace_{workload}.json")]
    if quick:
        command.append("--quick")
    completed = subprocess.run(
        command, cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONHASHSEED": "0"},
        timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------
def _format(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return f"{int(value):,}"
    return f"{value:,.4g}" if abs(value) < 1000 else f"{value:,.1f}"


def render(payload: Dict[str, object]) -> str:
    """One workload's metrics as a text table."""
    unit = units()
    ops = payload["ops"]
    lines = [
        f"== {payload['workload']}  seed={payload['seed']}"
        + ("  QUICK (smoke sizes; not comparable)" if payload["quick"]
           else ""),
        f"   ops: {ops['warmup']} warm-up, {ops['timed']} timed in "
        f"{ops['rebuilds']} rounds"
        + (f", {ops['traced']} traced" if "traced" in ops else ""),
    ]
    if "end_to_end" in payload:
        lines.append("   end to end")
        for name, value in payload["end_to_end"].items():
            lines.append(f"     {name:<28s} {_format(value):>14s} "
                         f"{unit[name]}")
        share = payload["failed"] / payload["attempted"]
        lines.append(f"     {'failed_ops_share':<28s} {share:>14.4g} ratio"
                     f"   ({payload['failed']} of {payload['attempted']} "
                     "ops)")
        detail = payload["setup_detail_s"]
        lines.append(
            f"     (setup_s is the fastest of {ops['rebuilds']} rebuilds: "
            f"median {detail['median']:.3f}, max {detail['max']:.3f})")
    if "per_layer" in payload:
        lines.append("   per layer (traced pass, per-op means)")
        for name, value in payload["per_layer"].items():
            lines.append(f"     {name:<36s} {_format(value):>14s} "
                         f"{unit[name]}")
        shares = payload["layer_shares"]
        named = sum(share for name, share in shares["self"].items()
                    if name != "harness.op")
        lines.append(f"     named layers cover {named:.1%} of the traced "
                     "op; largest shares")
        for kind in ("self", "inclusive"):
            top = sorted(
                (item for item in shares[kind].items()
                 if item[0] not in ("harness.op", "core.joins.driver",
                                    "service.drain")),
                key=lambda item: -item[1])[:6]
            lines.append(f"       {kind:<10s}" + ", ".join(
                f"{name} {share:.0%}" for name, share in top))
    for failure in payload["failures"]:
        lines.append(f"   FAILED {failure}")
    return "\n".join(lines)


def render_list() -> str:
    """``--list``: the whole catalogue."""
    lines = ["workloads"]
    for workload in WORKLOADS:
        lines.append(f"  {workload.name}: {workload.why}")
    lines.append("end-to-end metrics (name, unit, better, bound)")
    for metric in END_TO_END:
        lines.append(f"  {metric.name:<26s} {metric.unit:<6s} "
                     f"{metric.better:<6s} {metric.bound:.0%}  "
                     f"{metric.definition}")
    lines.append("  failed_ops_share: reported as failed / attempted; "
                 "must be 0")
    lines.append("per-layer metrics (name, unit, better -> should move)")
    for metric in PER_LAYER:
        lines.append(f"  {metric.name:<36s} {metric.unit:<6s} "
                     f"{metric.better:<6s} -> {metric.moves}")
    return "\n".join(lines)


def contract_line(payload: Dict[str, object], trace: int) -> str:
    """The one JSON object the driver reads off the last line."""
    unit = units()
    metrics = payload["per_layer" if trace else "end_to_end"]
    return json.dumps({
        "correct": payload["failed"] == 0,
        "attempted": payload["attempted"],
        "failed": payload["failed"],
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in metrics.items()},
    })


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--workload",
                        choices=[w.name for w in WORKLOADS])
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="wall seconds of a timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver form: 0 = end-to-end metrics only, "
                             "1 = per-layer metrics only")
    parser.add_argument("--quick", action="store_true",
                        help="5 ops per workload on a tenth of the rows")
    parser.add_argument("--list", action="store_true",
                        help="print workloads and metrics, run nothing")
    args = parser.parse_args(argv)

    if args.list:
        print(render_list())
        return 0

    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        payload = run_child(
            args.workload, args.seed, args.seconds,
            "traced" if args.trace else "timed", args.quick)
        for failure in payload["failures"]:
            print(f"FAILED {failure}", file=sys.stderr)
        print(contract_line(payload, args.trace))
        return 0

    names = [args.workload] if args.workload else [w.name for w in WORKLOADS]
    payloads = []
    for name in names:
        payload = run_child(name, args.seed, args.seconds, "both",
                            args.quick)
        payloads.append(payload)
        print(render(payload), flush=True)
    result_path = OUT_DIR / "result.json"
    result_path.write_text(json.dumps(
        {"quick": args.quick, "seed": args.seed, "workloads": payloads},
        indent=1))
    print(f"wrote {result_path.relative_to(REPO_ROOT)}")
    return 1 if any(payload["failed"] for payload in payloads) else 0
