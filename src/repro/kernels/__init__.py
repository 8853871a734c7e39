"""Vectorised hot-path kernels shared by every engine.

The paper's argument is that hybrid-join cost is dominated by a handful
of scan/shuffle/filter primitives, so this package makes exactly those
primitives fast while keeping them *bit-identical* to their naive
formulations.  Each kernel has one implementation; the naive
formulations live in ``tests/kernel_reference.py``, and the
differential battery in ``tests/test_kernels.py`` pins the equivalence:

* :mod:`repro.kernels.partition` — single-pass hash partitioning: one
  stable argsort instead of one full-table boolean filter per
  destination (O(n log n) vs O(n·p) for a p-way shuffle).
* :mod:`repro.kernels.joinindex` — :class:`JoinBuildIndex`, the sorted
  build side of the local equi-join, built once per worker build side
  and reusable across probe fragments and (via the service-plane
  cache) across queries on the same normalised build.
* :mod:`repro.kernels.bloomops` — word-level Bloom-filter operations:
  duplicate-collapsing scatter-OR insert, vectorised multi-hash bit
  tests, and popcount without materialising individual bits.
* :mod:`repro.kernels.sketch` — the seeded count-min sketch and top-k
  candidate heap behind heavy-hitter detection (:mod:`repro.skew`);
  streaming primitives with no naive twin — their contract (no
  underestimation, bounded overestimation, determinism) is pinned by
  property tests against exact counts instead.

:mod:`repro.kernels.wirecodec` is not a kernel any engine calls: it
prices nothing and is kept only for the benchmark's tracer hooks (see
its docstring), so it is not re-exported here.
"""

from __future__ import annotations

from repro.kernels.bloomops import popcount, scatter_or, test_bits
from repro.kernels.joinindex import JoinBuildIndex, probe_join
from repro.kernels.partition import partition_indices, partition_table
from repro.kernels.sketch import CountMinSketch, TopKHeap

__all__ = [
    "CountMinSketch",
    "JoinBuildIndex",
    "TopKHeap",
    "partition_indices",
    "partition_table",
    "popcount",
    "probe_join",
    "scatter_or",
    "test_bits",
]
