"""The skew plane: heavy-hitter detection, hybrid shuffle, stealing.

Under power-law key distributions the agreed-hash shuffle sends every
occurrence of a hot key to one JEN worker, and the whole join waits on
it — the ``ext_skew`` experiment in EXPERIMENTS.md measures the damage.
This package coordinates the three-stage countermeasure (in the spirit of
Metwally's broadcast-hot/hash-cold hybrid split and Chakraborty's
straggler-aware redistribution):

1. **Detect** — a :class:`HeavyHitterDetector` (count-min sketch +
   top-k heap, :mod:`repro.kernels.sketch`), created per scan by
   :meth:`repro.core.joins.base.JoinRun.hdfs_scan`, is fed each block's
   surviving join keys by the scan's per-block replay
   (:func:`repro.jen.worker.finish_scan`), so detection
   costs no second pass over L.
2. **Split** — the shuffle spreads build-side (L) rows of detected hot
   keys round-robin across each key's bounded destination set and
   duplicates the matching probe-side (T′) rows to that same set; the
   cold tail keeps the
   agreed hash (:meth:`repro.jen.engine.Jen.shuffle_by_key`,
   :func:`repro.core.joins.repartition._route_db_rows`).
3. **Steal** — residual straggler partitions are fragmented and
   re-dealt across workers before the local joins run
   (:func:`repro.jen.scheduler.plan_work_stealing`), priced honestly
   as a ``work_steal`` transfer phase on the trace.

A run arms all three with ``skew_handling`` on its own
:class:`~repro.core.joins.base.ExecutionContext`, so before/after
comparisons run identical code paths with only the skew handling
swapped, and two queries in one process may differ.
"""

from repro.skew.detector import (
    STEAL_THRESHOLD,
    HeavyHitterDetector,
    HotKeySet,
)

__all__ = [
    "STEAL_THRESHOLD",
    "HeavyHitterDetector",
    "HotKeySet",
]
