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
* :mod:`repro.kernels.wirecodec` — the compact wire format of the
  late-materialization transfers (:mod:`repro.latemat`): varint/delta
  row-id batches, dictionary-id passthrough and constant stripping,
  with bit-exact vectorised round trips.
"""

from __future__ import annotations

from repro.kernels.bloomops import popcount, scatter_or, test_bits
from repro.kernels.joinindex import JoinBuildIndex, probe_join
from repro.kernels.partition import partition_indices, partition_table
from repro.kernels.sketch import CountMinSketch, TopKHeap
from repro.kernels.wirecodec import (
    decode_rowids,
    decode_table,
    encode_rowids,
    encode_table,
    encoded_rowid_bytes,
    encoded_table_bytes,
)

__all__ = [
    "CountMinSketch",
    "JoinBuildIndex",
    "TopKHeap",
    "decode_rowids",
    "decode_table",
    "encode_rowids",
    "encode_table",
    "encoded_rowid_bytes",
    "encoded_table_bytes",
    "partition_indices",
    "partition_table",
    "popcount",
    "probe_join",
    "scatter_or",
    "test_bits",
]
