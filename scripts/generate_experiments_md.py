#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md from live experiment runs.

Usage:  python scripts/generate_experiments_md.py [--scale 25000]

Runs every registered experiment, embeds its measured table and shape
checks, and writes EXPERIMENTS.md at the repository root.  The prose
notes comparing against the paper live in PAPER_NOTES below.
"""

from __future__ import annotations

import argparse
import io
import pathlib
import sys

from repro.bench import EXPERIMENTS, WarehouseCache

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Presentation order: paper artifacts first, then ablations/extensions.
ORDER = [
    "table1", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
    "fig14", "fig15",
    "ablation_bf_params", "ablation_pipelining", "ablation_locality",
    "ablation_broadcast_scheme", "ablation_exact_filters",
    "ablation_spill", "ablation_process_thread", "ablation_zigzag_site",
    "ext_cluster_scaling", "ext_skew", "ext_formats",
    "ext_chaos", "ext_service",
]

PAPER_NOTES = {
    "table1": (
        "Paper values: repartition 5,854 M shuffled / 165 M sent; "
        "repartition(BF) 591 M / 165 M; zigzag 591 M / 30 M.  Measured "
        "values land within ~5% on every cell (the residual is the "
        "generator's integer key-region rounding plus Bloom false "
        "positives)."
    ),
    "fig8": (
        "Paper: zigzag is the fastest at every point, up to 2.1x over "
        "repartition and 1.8x over repartition(BF).  Measured: same "
        "ordering everywhere; zigzag's speedup vs repartition reaches "
        "~2.3x at sigma_L=0.4 and ~1.9x vs repartition(BF)."
    ),
    "fig9": (
        "Paper: zigzag improves as S_L' or S_T' decreases.  Measured: "
        "both trends hold (the S_T' panel strongly; the S_L' panel "
        "flattens once the smaller shuffle hides completely under the "
        "scan, so points differ only by sampling noise <=5%)."
    ),
    "fig10": (
        "Paper: broadcast preferable only when sigma_T <= 0.001, and "
        "even then 'the advantage is not dramatic'; repartition robust.  "
        "Measured: broadcast ties or wins at sigma_T=0.001 and loses by "
        ">2x at sigma_T=0.01."
    ),
    "fig11": (
        "Paper: the Bloom filter helps in most cases, benefit grows "
        "with |L'|; for very selective sigma_L <= 0.001 the BF overhead "
        "can cancel or outweigh the gain.  Measured: identical shape, "
        ">2x gain at sigma_L=0.2, slight net overhead at 0.001."
    ),
    "fig12": (
        "Paper: without Bloom filters the DB-side join wins only when "
        "sigma_L <= 0.01 and then deteriorates steeply; repartition is "
        "robust.  Measured: crossover in the same place; db "
        "deteriorates >5x from sigma_L=0.001 to 0.2 while hdfs-best "
        "grows ~2x."
    ),
    "fig13": (
        "Paper: with Bloom filters the same crossover remains and "
        "zigzag's time 'increases only slightly' with sigma_L.  "
        "Measured: db(BF) wins at sigma_L <= 0.01, zigzag wins by "
        "sigma_L=0.2 and stays within ~1.4x of its sigma_L=0.001 time."
    ),
    "fig14": (
        "Paper: both algorithms run 'significantly faster' on Parquet "
        "(the 1 TB text table exceeds aggregate memory; scans are 240 s "
        "vs 38 s).  Measured: 2-4x advantage for Parquet at every point."
    ),
    "fig15": (
        "Paper: on text the BF improvement is 'less dramatic' and can "
        "even be negative for repartition and DB-side joins, but zigzag "
        "with its second filter 'is always robustly better'.  Measured: "
        "BF gain on text drops to ~1.0x while zigzag still edges out "
        "repartition(BF) at every sigma_L of panel (a)."
    ),
    "ablation_zigzag_site": (
        "The paper rejects a DB-side zigzag variant without measuring "
        "it (\"scanning the HDFS table twice, without the help of "
        "indexes, is expected to introduce significant overhead\", "
        "Section 3.4).  We built the variant: it returns identical "
        "results, moves exactly as little data, and loses by the cost "
        "of the second scan — ~2x on Parquet, over 200 s on text."
    ),
    "ext_cluster_scaling": (
        "Not a paper figure: an extension quantifying the Section 1 "
        "motivation (growing Hadoop capacity vs a fixed, fully-utilised "
        "EDW)."
    ),
    "ext_formats": (
        "Not a paper figure: Fig. 14's text-vs-Parquet comparison "
        "extended with an ORC-like format (the paper cites ORC alongside "
        "Parquet as the column-store options of the era)."
    ),
    "ext_skew": (
        "Not a paper figure: the paper's values are uniform; this "
        "extension draws join keys from a Zipf distribution and applies "
        "the analytic hottest-worker factor at paper-scale key counts "
        "(see docs/calibration.md).  A noteworthy emergent effect: "
        "because the joinable key region sits at the head of the "
        "popularity ranking, the same key-level S_L' admits far more "
        "tuples under skew.  A shuffle priced above skew 1 counts its "
        "keys and splits the hot ones where the split's receivers beat "
        "the factor: at 0.9 the six joinable keys are cut finer than a "
        "fair share and both joins gain; at 0.5 no split can beat "
        "~1.0, so the rows hash as before."
    ),
    "ext_chaos": (
        "Not a paper figure: the paper assigns worker management to the "
        "JEN coordinator (Section 4.1) but measures no failure.  Each "
        "algorithm runs fault-free, then under one fault plan per "
        "recovery path the engine implements; the result must stay "
        "identical, so the table measures what surviving costs.  "
        "Recovery work shows in the makespan only where it lands on the "
        "critical path: the same crashed scan worker slows zigzag and "
        "db(BF) down but leaves repartition(BF) and broadcast unchanged."
    ),
    "ext_service": (
        "Not a paper figure: a stream of 12 queries over 3 templates from "
        "2 tenants, replayed through the query service at 1, 4 and 8 "
        "admission slots — first cold, then again with warm caches.  "
        "More slots trade per-query latency (p50) for makespan and tail "
        "latency (p95/p99); the warm pass answers every repeat from the "
        "result cache."
    ),
}

HEADER = """# EXPERIMENTS — paper vs. measured

Every table and figure of the paper's Section 5 is regenerated by this
repository, plus ablations and extensions: the design choices the paper
calls out, fault recovery and the concurrent query service.  Regenerate
everything (including this file) with:

```bash
python -m repro experiments                 # all experiments, printed
python -m repro experiments fig8 --figures  # one, as an ASCII bar chart
python scripts/generate_experiments_md.py   # rewrite EXPERIMENTS.md
```

Reading guide:

* **Counts** (tuples shuffled, DB tuples sent, filter bytes) come from the
  real data plane — rows genuinely move between the simulated engines —
  scaled back to the paper's table sizes.  These match the paper almost
  exactly.
* **Seconds** come from the calibrated time plane (a discrete-event replay
  of the measured execution trace).  Absolute values are anchored on the
  two scan numbers the paper reports (1 TB text ~240 s, projected Parquet
  ~38 s) and land in the paper's 50-700 s band; what the reproduction
  *asserts* are the qualitative claims — who wins, where crossovers fall,
  which trends are monotone — listed as PASS/FAIL checks under each table.
* Every experiment below currently passes all of its shape checks
  (`python -m repro experiments` exits 0; the generator exits 1 when a
  check fails).

Known deviations are noted inline; the main ones are:

1. The Fig. 9b point (sigma_T=0.1, sigma_L=0.4, S_T'=0.2, S_L'=0.4) is
   mathematically infeasible with disjoint uniform key regions
   (|JK(T') U JK(L')| = 1.04 * 16M keys), so the generator clamps it to
   the feasibility boundary; the paper's own measured selectivities must
   have been approximate there too.
2. In Fig. 9a the zigzag bars flatten below S_L'=0.4 because the reduced
   shuffle hides entirely under the scan — differences between those
   points are sampling noise (<=5%), which the shape check tolerates.
3. Our simulated DB-side crossover (Fig. 13) falls between sigma_L=0.01
   and 0.1-0.2 depending on the panel, slightly later than the paper's;
   the direction and steepness match.

"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", type=float, default=25_000)
    args = parser.parse_args(argv)

    missing = set(EXPERIMENTS) - set(ORDER)
    if missing:
        raise SystemExit(f"experiments missing from ORDER: {missing}")

    out = io.StringIO()
    out.write(HEADER)
    cache = WarehouseCache(scale=1.0 / args.scale)
    failures = 0
    for experiment_id in ORDER:
        experiment = EXPERIMENTS[experiment_id]
        result = experiment.run(cache)
        out.write(f"## {experiment.title}\n\n")
        out.write(f"*Paper reference*: {experiment.paper_ref}\n\n")
        note = PAPER_NOTES.get(experiment_id)
        if note:
            out.write(note + "\n\n")
        out.write("```\n" + result.to_report() + "\n```\n\n")
        if result.all_passed():
            out.write("Status: **all checks PASS**\n\n")
        else:
            out.write("Status: **CHECKS FAILING**\n\n")
            failures += 1

    (ROOT / "EXPERIMENTS.md").write_text(out.getvalue())
    print(f"EXPERIMENTS.md written "
          f"({len(out.getvalue().splitlines())} lines, "
          f"{failures} failing experiments)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
