#!/usr/bin/env python
"""Alternating parent/change pairs of the repo's benchmark.

Usage:  python scripts/bench_pairs.py PARENT_REV --workload W
                [--pairs 10] [--seconds 15] [--first-seed 100]

Extracts ``PARENT_REV`` into a temporary directory (``git archive``, so
the repository itself is not touched), then runs ``BENCHMARK.json``'s
command in driver form (``--workload W --seed N --seconds S --trace 0``)
once per side per pair: the working tree is the change, the extracted
tree the parent.  The side that runs first flips every pair and each
pair gets its own seed, so drift on a shared host and any one seed's
data hit both sides alike.

Prints, per end-to-end metric of ``BENCHMARK.json``: both medians with
their quartiles, the pairs the change won (ties — values equal to nine
digits — count for neither), and a verdict — ``identical`` when every pair tied; ``WORSE`` when the
change's median is worse than the parent's by more than the metric's
bound; ``gain`` when, over at least ten pairs, the change won at least
nine tenths of them *and* the medians differ by more than the parent's
own inter-quartile spread; ``no gain shown`` otherwise.  Exits
non-zero only when a run breaks or an op fails its oracle check;
reading the verdicts is the caller's job.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: choosing-metrics section 8: no claim rests on fewer pairs.
MIN_PAIRS_FOR_A_CLAIM = 10


def extract_revision(revision: str, destination: pathlib.Path) -> None:
    """The committed files of ``revision`` under ``destination``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", revision],
        stdout=subprocess.PIPE, check=True,
    )
    subprocess.run(["tar", "-x", "-C", str(destination)],
                   input=archive.stdout, check=True)


def run_once(command: Sequence[str], tree: pathlib.Path, workload: str,
             seed: int, seconds: float) -> Dict[str, float]:
    """One timed pass in ``tree``; its end-to-end metric values."""
    completed = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True, check=True,
        # Each tree must import its own sources, nothing inherited.
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    line = json.loads(completed.stdout.splitlines()[-1])
    if line["failed"] or not line["correct"]:
        raise SystemExit(
            f"{tree}: {line['failed']} of {line['attempted']} ops failed "
            f"their oracle check (workload {workload}, seed {seed})"
        )
    return {name: entry["value"] for name, entry in line["metrics"].items()}


def quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    first, _median, third = statistics.quantiles(
        values, n=4, method="inclusive")
    return first, third


def summarise(metric: Dict[str, object], parent: List[float],
              change: List[float]) -> str:
    """One report line for one end-to-end metric."""
    sign = -1.0 if metric["better"] == "higher" else 1.0
    # Equal to nine digits is a tie: a mean taken over a different
    # number of ops differs in the last ulp and means nothing.
    pairs = [(p, c) for p, c in zip(parent, change)
             if not math.isclose(p, c, rel_tol=1e-9)]
    won = sum(sign * c < sign * p for p, c in pairs)
    lost = len(pairs) - won
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    parent_q1, parent_q3 = quartiles(parent)
    change_q1, change_q3 = quartiles(change)
    gap = sign * (parent_median - change_median)
    if not pairs:
        verdict = "identical"
    elif -gap > metric["bound"] * abs(parent_median):
        verdict = "WORSE"
    elif len(parent) < MIN_PAIRS_FOR_A_CLAIM:
        verdict = f"fewer than {MIN_PAIRS_FOR_A_CLAIM} pairs"
    elif won >= 0.9 * len(parent) and gap > parent_q3 - parent_q1:
        verdict = "gain"
    else:
        verdict = "no gain shown"
    ratio = change_median / parent_median if parent_median else float("nan")
    return (
        f"{metric['name']:<26s} [{metric['unit']}] "
        f"parent {parent_median:.6g} ({parent_q1:.6g}..{parent_q3:.6g})  "
        f"change {change_median:.6g} ({change_q1:.6g}..{change_q3:.6g})  "
        f"x{ratio:.3f}  won {won}/{len(parent)} lost {lost}  {verdict}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_rev")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--first-seed", type=int, default=100,
                        help="pair i runs both sides at seed first-seed + i")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = contract["command"]
    metrics = contract["end_to_end"]
    values = {side: {metric["name"]: [] for metric in metrics}
              for side in ("parent", "change")}

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as scratch:
        parent_tree = pathlib.Path(scratch)
        extract_revision(args.parent_rev, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for pair in range(args.pairs):
            seed = args.first_seed + pair
            order = ("parent", "change") if pair % 2 == 0 \
                else ("change", "parent")
            for side in order:
                measured = run_once(command, trees[side], args.workload,
                                    seed, args.seconds)
                for name, series in values[side].items():
                    series.append(measured[name])
            print(f"pair {pair + 1}/{args.pairs} seed {seed} "
                  f"({order[0]} first): " + "  ".join(
                      f"{name} {values['parent'][name][-1]:.6g}"
                      f" -> {values['change'][name][-1]:.6g}"
                      for name in values["parent"]),
                  flush=True)

    print(f"\n{args.workload}: {args.pairs} alternating pairs of "
          f"{args.seconds:g} s, seeds {args.first_seed}.."
          f"{args.first_seed + args.pairs - 1}, parent {args.parent_rev}")
    for metric in metrics:
        print(summarise(metric, values["parent"][metric["name"]],
                        values["change"][metric["name"]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
