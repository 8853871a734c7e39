"""The skew plane: heavy-hitter detection, hybrid shuffle, stealing.

Under power-law key distributions the agreed-hash shuffle sends every
occurrence of a hot key to one JEN worker, and the whole join waits on
it — the ``ext_skew`` experiment in EXPERIMENTS.md measures the damage.
This package coordinates the three-stage countermeasure (in the spirit of
Metwally's broadcast-hot/hash-cold hybrid split and Chakraborty's
straggler-aware redistribution):

1. **Detect** — :func:`hot_key_set` counts the keys the shuffle is
   about to route, exactly, once
   (:func:`repro.core.joins.repartition.shuffle_l`).
2. **Split** — the shuffle spreads build-side (L) rows of detected hot
   keys round-robin across each key's bounded destination set and
   duplicates the matching probe-side (T′) rows to that same set; the
   cold tail keeps the agreed hash
   (:meth:`repro.jen.engine.Jen.shuffle_by_key`,
   :func:`repro.core.joins.repartition._route_db_rows`).
3. **Steal** — residual straggler partitions are fragmented and
   re-dealt across workers before the local joins run
   (:func:`repro.jen.scheduler.plan_work_stealing`), priced honestly
   as a ``work_steal`` transfer phase on the trace.

There is no switch.  The plane runs where the priced plan can gain from
it: a run whose shuffle is priced at a skew above 1
(``HybridConfig.shuffle_skew``) counts its keys, and only a run whose
count found a hot key splits and steals.  At priced skew 1 the split
could shorten no phase, so such a run counts nothing and routes every
row by the agreed hash, as the paper's JEN does (Section 4.3).
"""

from repro.skew.detector import STEAL_THRESHOLD, HotKeySet, hot_key_set

__all__ = [
    "STEAL_THRESHOLD",
    "HotKeySet",
    "hot_key_set",
]
