"""Naive reference implementations of every kernel in :mod:`repro.kernels`.

These are the formulations the vectorised kernels replaced: one
full-table boolean filter per destination, ``np.bitwise_or.at``
scatter, per-hash probe loops, ``np.unpackbits`` popcount, and a
per-probe re-sort of the join build side.  They live with the tests,
not in the package: ``tests/test_kernels.py`` and
``tests/test_join_pipeline.py`` prove each kernel *bit-identical* to
its reference on seeded grids of adversarial inputs, and nothing at
runtime can route through them.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np


def naive_partition_indices(assignments: np.ndarray,
                            num_partitions: int) -> List[np.ndarray]:
    """Per-destination row indices via one boolean filter per destination."""
    assignments = np.asarray(assignments)
    return [
        np.flatnonzero(assignments == partition).astype(np.int64)
        for partition in range(num_partitions)
    ]


def naive_partition_table(table, assignments: np.ndarray,
                          num_partitions: int) -> List:
    """Per-destination tables via one full-table filter per destination."""
    assignments = np.asarray(assignments)
    return [
        table.filter(assignments == partition)
        for partition in range(num_partitions)
    ]


def naive_scatter_or(words: np.ndarray, positions: np.ndarray) -> None:
    """Serial scatter-OR of bit positions into a uint64 word array."""
    positions = np.asarray(positions).ravel().astype(np.uint64)
    word_index = (positions >> np.uint64(6)).astype(np.int64)
    bit = np.uint64(1) << (positions & np.uint64(63))
    np.bitwise_or.at(words, word_index, bit)


def naive_test_bits(words: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Per-hash-function probe loop over a (k, n) position array."""
    positions = np.asarray(positions)
    mask = np.ones(positions.shape[1], dtype=bool)
    for i in range(positions.shape[0]):
        word_index = (positions[i] >> np.uint64(6)).astype(np.int64)
        bit = (positions[i] & np.uint64(63)).astype(np.uint64)
        mask &= (words[word_index] >> bit) & np.uint64(1) != 0
    return mask


def naive_popcount(words: np.ndarray) -> int:
    """Count set bits by materialising every bit with ``unpackbits``."""
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    return int(np.unpackbits(as_bytes).sum())


def naive_join_indices(build_keys: np.ndarray, probe_keys: np.ndarray
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """All matching (build_row, probe_row) pairs via a pure-Python dict.

    Pairs are emitted probe-major with build positions ascending within
    one probe row — the order the sorted kernel produces.
    """
    build_keys = np.asarray(build_keys)
    probe_keys = np.asarray(probe_keys)
    lookup = {}
    for position, key in enumerate(build_keys.tolist()):
        lookup.setdefault(key, []).append(position)
    build_out: List[int] = []
    probe_out: List[int] = []
    for position, key in enumerate(probe_keys.tolist()):
        for build_position in lookup.get(key, ()):
            build_out.append(build_position)
            probe_out.append(position)
    return (np.asarray(build_out, dtype=np.int64),
            np.asarray(probe_out, dtype=np.int64))


def naive_sorted_join(build_keys: np.ndarray, probe_keys: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """The pre-kernel sort-based join: re-sorts the build side per call."""
    build_keys = np.asarray(build_keys)
    probe_keys = np.asarray(probe_keys)
    if build_keys.size == 0 or probe_keys.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    order = np.argsort(build_keys, kind="stable")
    sorted_build = build_keys[order]
    lo = np.searchsorted(sorted_build, probe_keys, side="left")
    hi = np.searchsorted(sorted_build, probe_keys, side="right")
    counts = (hi - lo).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    probe_idx = np.repeat(np.arange(len(probe_keys), dtype=np.int64), counts)
    starts = np.zeros(len(probe_keys), dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    within = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    build_idx = order[np.repeat(lo.astype(np.int64), counts) + within]
    return build_idx, probe_idx
