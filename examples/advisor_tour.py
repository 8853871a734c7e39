#!/usr/bin/env python
"""A tour of the paper's Section 5.5 conclusions, as executable output.

Sweeps the local-predicate selectivities and shows which algorithm wins
where — the broadcast region (tiny T'), the DB-side region (tiny L'),
and the wide zigzag region in between — first with the analytic advisor,
then validated against the full simulation at a few points, and last
the adaptive wrapper rescuing a plan picked from a wrong estimate.

Run:  python examples/advisor_tour.py
"""

from repro import JoinAdvisor, WorkloadEstimate, algorithm_by_name
from repro.adaptive import AdaptiveJoin
from repro.bench.harness import WarehouseCache


def shorten(name: str) -> str:
    return {
        "repartition(BF)": "repart(BF)",
        "repartition": "repart",
        "broadcast": "bcast",
    }.get(name, name)


def main():
    advisor = JoinAdvisor()
    sigma_ts = [0.0005, 0.001, 0.01, 0.05, 0.1, 0.2]
    sigma_ls = [0.001, 0.01, 0.05, 0.1, 0.2, 0.4]

    print("Winner by (sigma_T, sigma_L) — advisor estimates "
          "(S_T'=0.2, S_L'=0.1, Parquet)\n")
    header = "sigma_T \\ sigma_L" + "".join(
        f"{sigma_l:>12g}" for sigma_l in sigma_ls
    )
    print(header)
    for sigma_t in sigma_ts:
        cells = []
        for sigma_l in sigma_ls:
            decision = advisor.decide(WorkloadEstimate(
                t_rows=1.6e9, l_rows=15e9,
                sigma_t=sigma_t, sigma_l=sigma_l, s_t=0.2, s_l=0.1,
            ))
            cells.append(f"{shorten(decision.best):>12s}")
        print(f"{sigma_t:>17g}" + "".join(cells))

    print("\nThe paper's reading (Section 5.5): broadcast only for very "
          "selective\npredicates on T; DB-side only for very selective "
          "predicates on L;\nzigzag everywhere else.\n")

    # Validate three representative cells against the full simulation.
    print("validation against full simulation:")
    cache = WarehouseCache()
    points = [
        (0.001, 0.1, "broadcast region"),
        (0.1, 0.001, "DB-side region"),
        (0.1, 0.2, "zigzag region"),
    ]
    candidates = ["db(BF)", "broadcast", "repartition(BF)", "zigzag"]
    for sigma_t, sigma_l, label in points:
        setup = cache.setup(sigma_t, sigma_l, s_l=0.1)
        times = {
            name: algorithm_by_name(name).run(
                setup.warehouse, setup.query
            ).total_seconds
            for name in candidates
        }
        winner = min(times, key=times.get)
        listing = ", ".join(
            f"{shorten(n)}={t:.0f}s" for n, t in sorted(
                times.items(), key=lambda kv: kv[1]
            )
        )
        print(f"  sigma_T={sigma_t:g} sigma_L={sigma_l:g} ({label}): "
              f"winner={shorten(winner)}  [{listing}]")

    # At run time the estimate can be wrong: started from a 10x
    # underestimate of sigma_L, the adaptive wrapper picks a plan for
    # the wrong region, watches the scan, and switches.
    setup = cache.setup(0.1, 0.2, s_l=0.1)
    adaptive = AdaptiveJoin(estimate_errors=(1.0, 0.1)).run(
        setup.warehouse, setup.query)
    report = adaptive.adaptive
    print(f"\nadaptive run from a 10x sigma_L underestimate: "
          f"{' -> '.join(report.path)} in {adaptive.total_seconds:.0f}s")
    for decision in report.switches:
        print(f"  switched at {decision.at_progress:.0%} of the scan: "
              f"{decision.reason}")


if __name__ == "__main__":
    main()
