"""Wall-clock benchmarks of the vectorised kernel layer.

Everything else under :mod:`repro.bench` measures *simulated* seconds —
the time plane's estimate of the paper's 30-node clusters.  This module
measures the one thing the time plane cannot: how fast the data plane
itself runs on the host machine, with and without the kernels of
:mod:`repro.kernels`.

Two tiers:

* **micro** — each kernel against its naive reference implementation on
  identical inputs (single-pass partitioning vs. one boolean filter per
  destination, the word-level Bloom scatter vs. ``bitwise_or.at``, the
  fancy-indexed membership test vs. a per-hash loop, word-level popcount
  vs. ``unpackbits``, one reusable :class:`~repro.kernels.JoinBuildIndex`
  vs. re-sorting the build side per probe fragment);
* **end-to-end** — the join algorithms on the Table-1 demo workload at
  30 simulated workers, with the kernel layer globally disabled
  (``set_kernels_enabled(False)`` routes every call site through the
  naive references) and then enabled, on the same warehouse.  The two
  runs are verified row-identical before being timed.

Results are emitted as JSON (``BENCH_wallclock.json``); ``--check``
compares *speedup ratios* against a checked-in baseline, so the gate is
machine-independent: it fails only when a kernel's advantage over its
own naive reference collapses by more than the allowed factor, not when
CI hardware is slower than the machine that produced the baseline.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.kernels import set_kernels_enabled
from repro.kernels.bloomops import popcount, scatter_or, test_bits
from repro.kernels.joinindex import JoinBuildIndex
from repro.kernels.partition import partition_table
from repro.kernels.reference import (
    naive_partition_table,
    naive_popcount,
    naive_scatter_or,
    naive_sorted_join,
    naive_test_bits,
)

#: End-to-end coverage: the paper's five algorithm families, with the
#: Bloom variants that matter for the kernel layer.
E2E_ALGORITHMS = (
    "db", "db(BF)", "broadcast", "repartition", "repartition(BF)", "zigzag",
)


def _time_pair(naive_fn: Callable[[], object],
               kernel_fn: Callable[[], object],
               repeats: int) -> Tuple[float, float]:
    """Best-of-N seconds for two comparands, sampled in alternate rounds.

    On a shared machine a load spike during one side's whole
    measurement window would fabricate (or erase) a speedup.  Running
    the two sides back-to-back inside every round exposes them to the
    same interference, and each side's best comes from its calmest
    round.  Both are warmed once, untimed, first.
    """
    naive_fn()
    kernel_fn()
    best_naive = best_kernel = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        naive_fn()
        best_naive = min(best_naive, time.perf_counter() - start)
        start = time.perf_counter()
        kernel_fn()
        best_kernel = min(best_kernel, time.perf_counter() - start)
    return best_naive, best_kernel


def _entry(naive_seconds: float, kernel_seconds: float,
           **extra) -> Dict[str, object]:
    entry: Dict[str, object] = {
        "naive_seconds": round(naive_seconds, 6),
        "kernel_seconds": round(kernel_seconds, 6),
        "speedup": round(naive_seconds / max(kernel_seconds, 1e-12), 2),
    }
    entry.update(extra)
    return entry


# ----------------------------------------------------------------------
# Micro benchmarks
# ----------------------------------------------------------------------
def run_micro(repeats: int = 3, scale: float = 1.0) -> Dict[str, dict]:
    """Kernel-vs-reference timings on synthetic inputs.

    Full-mode sizes mirror what one engine call actually sees: a JEN
    worker partitions one scan block's wire table per shuffle call
    (paper scale: 128 M L-rows over 240 blocks, post-predicate ≈ 400 K
    rows), and builds its local Bloom filter from its whole key
    partition in one insert.  ``scale`` shrinks every input size
    proportionally (CI quick mode).
    """
    from repro.core.bloom import BloomFilter
    from repro.workload import WorkloadSpec, generate_workload

    sizes = {
        "partition_rows": max(20_000, int(400_000 * scale)),
        "partitions": 30,
        "bloom_keys": max(20_000, int(2_000_000 * scale)),
        "bloom_bits": max(1 << 16, int((1 << 23) * scale)),
        "popcount_words": max(1 << 14, int((1 << 22) * scale)),
        "join_build_rows": max(10_000, int(400_000 * scale)),
        "join_probe_fragments": 8,
    }
    rng = np.random.default_rng(7)
    results: Dict[str, dict] = {}

    # Partitioning: a realistic wide-ish table from the workload
    # generator, split 30 ways on a hashed assignment.
    workload = generate_workload(WorkloadSpec(
        sigma_t=0.1, sigma_l=0.4, s_t=0.2, s_l=0.1,
        t_rows=1000, l_rows=sizes["partition_rows"],
        n_keys=max(100, sizes["partition_rows"] // 100), seed=42,
    ))
    table = workload.l_table
    assignments = rng.integers(
        0, sizes["partitions"], size=table.num_rows
    ).astype(np.int64)
    results["partition"] = _entry(
        *_time_pair(
            lambda: naive_partition_table(
                table, assignments, sizes["partitions"]),
            lambda: partition_table(
                table, assignments, sizes["partitions"]),
            repeats,
        ),
        rows=table.num_rows, partitions=sizes["partitions"],
        columns=len(table.schema.names),
    )

    # Bloom insert: same hashed positions, scattered into fresh words.
    bloom = BloomFilter(sizes["bloom_bits"], num_hashes=2, seed=7)
    keys = rng.integers(
        0, sizes["bloom_keys"] // 4, size=sizes["bloom_keys"]
    ).astype(np.uint64)
    positions = bloom._positions(keys)
    num_words = len(bloom._words)

    def bench_naive_insert():
        naive_scatter_or(np.zeros(num_words, dtype=np.uint64), positions)

    def bench_kernel_insert():
        scatter_or(np.zeros(num_words, dtype=np.uint64), positions)

    results["bloom_insert"] = _entry(
        *_time_pair(bench_naive_insert, bench_kernel_insert, repeats),
        keys=sizes["bloom_keys"], bits=sizes["bloom_bits"],
    )

    # Bloom membership test on a populated filter.
    bloom.add(keys)
    probe_keys = rng.integers(
        0, sizes["bloom_keys"] // 2, size=sizes["bloom_keys"]
    ).astype(np.uint64)
    probe_positions = bloom._positions(probe_keys)
    words = bloom._words
    results["bloom_contains"] = _entry(
        *_time_pair(
            lambda: naive_test_bits(words, probe_positions),
            lambda: test_bits(words, probe_positions),
            repeats,
        ),
        keys=sizes["bloom_keys"],
    )

    # Popcount over a dense word array.
    dense = rng.integers(
        0, np.iinfo(np.uint64).max, size=sizes["popcount_words"],
        dtype=np.uint64,
    )
    results["popcount"] = _entry(
        *_time_pair(
            lambda: naive_popcount(dense),
            lambda: popcount(dense),
            repeats,
        ),
        words=sizes["popcount_words"],
    )

    # Join build reuse: one build side probed by many fragments.  The
    # naive path re-sorts the build keys for every fragment; the kernel
    # sorts once and only probes.
    build_keys = rng.integers(
        0, sizes["join_build_rows"] // 2, size=sizes["join_build_rows"]
    ).astype(np.int64)
    fragments = [
        rng.integers(0, sizes["join_build_rows"] // 2,
                     size=sizes["join_build_rows"] // 4).astype(np.int64)
        for _ in range(sizes["join_probe_fragments"])
    ]

    def bench_naive_join():
        for fragment in fragments:
            naive_sorted_join(build_keys, fragment)

    def bench_kernel_join():
        index = JoinBuildIndex(build_keys)
        for fragment in fragments:
            index.probe(fragment)

    results["join_index_reuse"] = _entry(
        *_time_pair(bench_naive_join, bench_kernel_join, repeats),
        build_rows=sizes["join_build_rows"],
        fragments=sizes["join_probe_fragments"],
    )
    return results


# ----------------------------------------------------------------------
# End-to-end benchmarks
# ----------------------------------------------------------------------
def _build_warehouse(scale: float):
    from repro import (
        HybridWarehouse,
        WorkloadSpec,
        default_config,
        generate_workload,
    )

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


def run_end_to_end(repeats: int = 2, scale: float = 1 / 25_000,
                   algorithms=E2E_ALGORITHMS) -> Dict[str, dict]:
    """Whole-algorithm wall clock, kernels disabled vs. enabled.

    Both modes run the *same* engine code on the *same* warehouse; only
    the kernel dispatch flag differs.  Before timing, both modes are
    checked against the single-node oracle
    (:mod:`repro.testkit.oracle`), so a speedup can never come from
    computing something different — or from both modes sharing the same
    wrong answer.
    """
    from repro import algorithm_by_name
    from repro.testkit import oracle
    from repro.workload import build_paper_query

    warehouse, workload = _build_warehouse(scale)
    query = build_paper_query(workload)
    expected = oracle.oracle_execute(
        workload.t_table, workload.l_table, query
    )
    results: Dict[str, dict] = {}
    for name in algorithms:
        algorithm = algorithm_by_name(name)

        def run_naive():
            previous = set_kernels_enabled(False)
            try:
                return algorithm.run(warehouse, query)
            finally:
                set_kernels_enabled(previous)

        for mode, run in (("naive", run_naive()),
                          ("kernels", algorithm.run(warehouse, query))):
            diff = oracle.compare_tables(
                run.result, expected, label=f"{name} ({mode})"
            )
            if diff is not None:
                raise AssertionError(diff)
        naive_seconds, kernel_seconds = _time_pair(
            run_naive, lambda: algorithm.run(warehouse, query), repeats)
        results[name] = _entry(
            naive_seconds, kernel_seconds,
            identical=True, result_rows=expected.num_rows,
        )
    return results


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def run_wallclock(quick: bool = False, repeats: Optional[int] = None,
                  skip_e2e: bool = False) -> Dict[str, object]:
    """The full benchmark payload."""
    from repro import default_config

    micro_scale = 0.1 if quick else 1.0
    e2e_scale = 1 / 100_000 if quick else 1 / 25_000
    if repeats is None:
        # Micro timings are a few ms each; a generous best-of-N is
        # cheap and is what keeps the CI regression gate stable.
        repeats = 7 if quick else 9
    cluster = default_config(scale=e2e_scale).cluster
    payload: Dict[str, object] = {
        "benchmark": "wallclock",
        "mode": "quick" if quick else "full",
        "repeats": repeats,
        "workers": {
            "jen": cluster.jen_workers(),
            "db": cluster.db_workers,
        },
        "micro": run_micro(repeats=repeats, scale=micro_scale),
    }
    if not skip_e2e:
        payload["end_to_end"] = run_end_to_end(
            repeats=max(1, repeats - 1), scale=e2e_scale)
    return payload


def check_regression(current: Dict[str, object],
                     baseline: Dict[str, object],
                     allowed_factor: float = 2.0) -> List[str]:
    """Speedup-ratio regressions of ``current`` vs. ``baseline``.

    A kernel regresses when its measured speedup over its own naive
    reference falls below ``baseline_speedup / allowed_factor``.  Only
    the micro tier gates (end-to-end numbers are reported but too noisy
    for shared CI runners).  Returns human-readable failure lines.
    """
    failures: List[str] = []
    baseline_micro = baseline.get("micro", {})
    current_micro = current.get("micro", {})
    for name, base_entry in sorted(baseline_micro.items()):
        if name not in current_micro:
            failures.append(f"micro/{name}: missing from current run")
            continue
        base_speedup = float(base_entry["speedup"])
        now_speedup = float(current_micro[name]["speedup"])
        floor = base_speedup / allowed_factor
        if now_speedup < floor:
            failures.append(
                f"micro/{name}: speedup {now_speedup:.2f}x fell below "
                f"{floor:.2f}x (baseline {base_speedup:.2f}x / "
                f"{allowed_factor:g})"
            )
    return failures


def render(payload: Dict[str, object]) -> str:
    """One-line-per-bench summary for the terminal."""
    lines = [
        f"wall-clock benchmarks ({payload['mode']} mode, "
        f"best of {payload['repeats']}, "
        f"{payload['workers']['jen']} JEN / "
        f"{payload['workers']['db']} DB workers)",
        "",
        "micro kernels (naive -> kernel):",
    ]
    for name, entry in payload["micro"].items():
        lines.append(
            f"  {name:<18s} {entry['naive_seconds'] * 1e3:9.2f}ms -> "
            f"{entry['kernel_seconds'] * 1e3:9.2f}ms   "
            f"{entry['speedup']:6.2f}x"
        )
    if "end_to_end" in payload:
        lines += ["", "end-to-end algorithms (kernels off -> on):"]
        for name, entry in payload["end_to_end"].items():
            lines.append(
                f"  {name:<18s} {entry['naive_seconds'] * 1e3:9.2f}ms -> "
                f"{entry['kernel_seconds'] * 1e3:9.2f}ms   "
                f"{entry['speedup']:6.2f}x"
            )
    return "\n".join(lines)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """CLI options (shared by ``python -m repro bench`` and the script)."""
    parser.add_argument("--out", help="write the JSON payload to this path")
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes for CI smoke runs")
    parser.add_argument("--repeats", type=int, default=None,
                        help="best-of repeats (default: 3, quick: 1)")
    parser.add_argument("--skip-e2e", action="store_true",
                        help="micro kernels only")
    parser.add_argument(
        "--check", metavar="BASELINE",
        help="compare speedups against a baseline JSON; exit 1 on a "
             ">2x regression",
    )
    parser.add_argument("--allowed-factor", type=float, default=2.0,
                        help="regression tolerance for --check")


def run_from_args(args) -> int:
    """Execute the harness for parsed ``args``; returns an exit code."""
    payload = run_wallclock(
        quick=args.quick, repeats=args.repeats, skip_e2e=args.skip_e2e)
    print(render(payload))
    if args.out:
        out = pathlib.Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {out}")
    if args.check:
        baseline = json.loads(pathlib.Path(args.check).read_text())
        failures = check_regression(
            payload, baseline, allowed_factor=args.allowed_factor)
        if failures:
            print("\nperformance regressions:", file=sys.stderr)
            for line in failures:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"\nno regressions vs {args.check} "
              f"(tolerance {args.allowed_factor:g}x)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.wallclock",
        description="Wall-clock benchmarks of the vectorised kernels",
    )
    add_arguments(parser)
    return run_from_args(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
