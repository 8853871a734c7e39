"""The reusable build side of the local equi-join.

Every distributed algorithm in the paper ends with each worker joining
its build-side rows against probe fragments.  The sort-based local join
used to re-sort the *same* build keys on every call; a
:class:`JoinBuildIndex` performs that O(n log n) sort once and then
answers any number of probes in O(p log n) each.  Workers build one
index per build side and reuse it across probe fragments and spill
re-reads; the service plane additionally caches indexes across queries
that share a normalised build side (see
:class:`repro.service.cache.JoinIndexCache`).

The probe algorithm is the one ``hash_join_indices`` always used
(stable sort order + double ``searchsorted``), so match pairs come back
in the identical order: probe-major, build positions in sorted-key
occurrence order within one probe row.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` as int64, by the fastest route.

    Integer keys are packed with their positions into one int64 word
    each — ``(key - min) << shift | position`` — and the words are
    *value*-sorted, which numpy does several times faster than an
    indirect stable sort.  The position in the low bits makes every
    word distinct, so there are no ties for the unstable sort to
    reorder: equal keys come out in ascending position, which is the
    stable order.  Keys the packing cannot hold — non-integers, or a
    key span plus a position that need more than 63 bits — take the
    stable argsort itself.
    """
    count = len(keys)
    if count and keys.dtype.kind in "iu":
        low = int(keys.min())
        shift = (count - 1).bit_length()
        if (int(keys.max()) - low).bit_length() + shift <= 63:
            if keys.dtype == np.uint64:
                # Offsets fit int64 even where the keys themselves do not.
                words = (keys - np.uint64(low)).astype(np.int64)
            else:
                words = keys.astype(np.int64)
                words -= low
            words <<= shift
            words |= np.arange(count, dtype=np.int64)
            words.sort()
            words &= (1 << shift) - 1
            return words
    return np.argsort(keys, kind="stable").astype(np.int64, copy=False)


class JoinBuildIndex:
    """Sorted join keys plus the permutation back to build-row order.

    Parameters
    ----------
    build_keys:
        The build side's join-key column.  The array is retained (by
        reference) so cached indexes can be validated against a fresh
        build side with :meth:`matches` before reuse.
    """

    __slots__ = ("keys", "order", "sorted_keys")

    def __init__(self, build_keys: np.ndarray):
        self.keys = np.asarray(build_keys)
        self.order = _stable_order(self.keys)
        self.sorted_keys = self.keys.take(self.order)

    @property
    def num_keys(self) -> int:
        """Number of build rows indexed."""
        return len(self.keys)

    def matches(self, build_keys: np.ndarray) -> bool:
        """Whether this index was built over exactly ``build_keys``.

        Identity is checked first (the common case for a per-query
        reuse); otherwise an O(n) element compare guards cached reuse
        across queries — still far cheaper than the O(n log n) rebuild.
        """
        build_keys = np.asarray(build_keys)
        if build_keys is self.keys:
            return True
        if build_keys.shape != self.keys.shape:
            return False
        return bool(np.array_equal(build_keys, self.keys))

    def probe(self, probe_keys: np.ndarray
              ) -> Tuple[np.ndarray, np.ndarray]:
        """All matching (build_row, probe_row) pairs for an equi-join.

        Duplicate keys multiply out exactly as SQL requires; the pair
        order is identical to the historical ``hash_join_indices``.
        """
        probe_keys = np.asarray(probe_keys)
        if self.num_keys == 0 or probe_keys.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        lo = np.searchsorted(self.sorted_keys, probe_keys, side="left")
        hi = np.searchsorted(self.sorted_keys, probe_keys, side="right")
        counts = (hi - lo).astype(np.int64)
        total = int(counts.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        probe_idx = np.repeat(
            np.arange(len(probe_keys), dtype=np.int64), counts
        )
        # Pair j of probe row p reads sorted position lo[p] + (j -
        # starts[p]): repeat the per-row constant, add the running j.
        starts = np.zeros(len(probe_keys), dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        positions = np.repeat(lo - starts, counts)
        positions += np.arange(total, dtype=np.int64)
        return self.order.take(positions), probe_idx

    def __repr__(self) -> str:
        return f"JoinBuildIndex(keys={self.num_keys})"


def probe_join(build_keys: np.ndarray, probe_keys: np.ndarray,
               build_index: Optional[JoinBuildIndex] = None,
               ) -> Tuple[np.ndarray, np.ndarray]:
    """Equi-join index pairs, reusing ``build_index`` when one is given.

    Without an index this is a one-shot build + probe; with one, the
    build-side sort is skipped entirely.  A supplied index must cover
    exactly ``build_keys`` (cheaply verified), falling back to a fresh
    build on mismatch rather than returning wrong pairs.
    """
    if build_index is not None and build_index.matches(build_keys):
        return build_index.probe(probe_keys)
    return JoinBuildIndex(build_keys).probe(probe_keys)
