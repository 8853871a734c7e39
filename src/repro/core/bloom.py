"""Bloom filters over integer join keys.

A Bloom filter here is exactly the structure the paper describes in
Section 3: an ``m``-bit array with ``k`` hash functions.  Adding a key
sets the ``k`` hashed bit positions; membership tests check them, with a
tunable false-positive rate and *no* false negatives.  The paper ORs
per-worker filters into a global one (its ``cal_filter`` /
``get_filter`` / ``combine_filter`` UDFs in DB2); the OR of filters
over key subsets is the filter over their union, so each side here
builds its query-wide filter in one :meth:`BloomFilter.add`.

The paper's configuration (Section 5) is 128 M bits with 2 hash
functions over 16 M unique keys, which it quotes as roughly a 5%
false-positive rate; :meth:`BloomFilter.expected_fpr` reproduces the
standard formula behind that number.

Keys are hashed with two independent splitmix64-style mixers and the
``k`` positions are derived via double hashing (h1 + i*h2), the standard
technique from Kirsch & Mitzenmacher that keeps vectorised hashing cheap
without measurable FPR penalty.

Integer keys whose value span is at most twice their count — join keys
drawn from a small domain, which is what a query-wide filter step sees
— are hashed once per *distinct* key: a presence array over the span
finds them, and :meth:`BloomFilter.contains` answers every key through
a span-sized lookup table.  A key hashes to the same positions either
way, so the words and masks do not depend on which path ran.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Tuple

import numpy as np

from repro.errors import BloomFilterError
from repro.kernels.bloomops import popcount, scatter_or, test_bits
from repro.kernels.joinindex import span_offsets

_MIX_MULT_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_MULT_2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _splitmix64(x: np.ndarray, seed: int) -> np.ndarray:
    """Vectorised splitmix64 finaliser, seeded; mixes ``x`` in place.

    ``x`` must be a ``uint64`` array the caller owns.
    """
    with np.errstate(over="ignore"):
        x += np.uint64(seed) * _GOLDEN
        x ^= x >> np.uint64(30)
        x *= _MIX_MULT_1
        x ^= x >> np.uint64(27)
        x *= _MIX_MULT_2
        x ^= x >> np.uint64(31)
    return x


def _distinct_keys(
    keys: np.ndarray,
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Distinct integer keys by counting, when their span allows.

    For integer keys whose span ``max - min + 1`` is at most twice the
    key count (the bound of the counting group-by in
    :mod:`repro.relational.aggregates`), returns ``(distinct, present,
    occupied, offsets)``: the distinct keys in ascending order and in
    the keys' own dtype; a boolean presence array over the span; the
    occupied offsets (``present``'s true positions, one per distinct
    key); and each key's offset into the span.  Other dtypes and wider
    spans return ``None``.
    """
    if keys.dtype.kind not in "iu":
        return None
    low = keys.min()
    span = int(keys.max()) - int(low) + 1
    if span > 2 * keys.size:
        return None
    offsets = span_offsets(keys, low).astype(np.intp, copy=False)
    present = np.zeros(span, dtype=bool)
    present[offsets] = True
    occupied = np.flatnonzero(present)
    # Back to key values, wrapping the same way in the keys' dtype.
    distinct = occupied.astype(keys.dtype) + low
    return distinct, present, occupied, offsets


class BloomFilter:
    """A fixed-size Bloom filter over integer keys.

    Parameters
    ----------
    num_bits:
        Size of the bit array ``m``.
    num_hashes:
        Number of hash functions ``k``.
    seed:
        Base seed; two filters must share ``num_bits``, ``num_hashes`` and
        ``seed`` to be merged or for one side's filter to be probed by the
        other side (the "agreed" configuration of the algorithms).
    """

    def __init__(self, num_bits: int, num_hashes: int = 2, seed: int = 7):
        if num_bits <= 0:
            raise BloomFilterError("num_bits must be positive")
        if num_hashes <= 0:
            raise BloomFilterError("num_hashes must be positive")
        self.num_bits = int(num_bits)
        self.num_hashes = int(num_hashes)
        self.seed = int(seed)
        self._words = np.zeros((self.num_bits + 63) // 64, dtype=np.uint64)
        self._num_added = 0

    # ------------------------------------------------------------------
    # Hashing
    # ------------------------------------------------------------------
    def _positions(self, keys: np.ndarray) -> np.ndarray:
        """(k, n) array of bit positions via double hashing."""
        # One conversion; both mixers then run in place on owned copies.
        h1 = np.asarray(keys).astype(np.uint64)
        h2 = _splitmix64(h1.copy(), self.seed + 0x5BD1)
        h1 = _splitmix64(h1, self.seed)
        # Force h2 odd so strides cover the table.
        h2 |= np.uint64(1)
        m = np.uint64(self.num_bits)
        positions = np.empty((self.num_hashes, len(h1)), dtype=np.uint64)
        with np.errstate(over="ignore"):
            for i in range(self.num_hashes):
                positions[i] = (h1 + np.uint64(i) * h2) % m
        return positions

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, keys: Iterable[int]) -> None:
        """Insert keys (any integer iterable or numpy array).

        Runs the word-level scatter kernel: duplicate positions (hash
        collisions and the k hashes of repeated keys) collapse in a
        presence-array scatter and the words are built with one fused
        bit-pack — no serial ``bitwise_or.at`` scatter.  Integer keys
        with a narrow span are hashed once per distinct key.
        """
        keys = np.asarray(list(keys) if not isinstance(keys, np.ndarray) else keys)
        if keys.size == 0:
            return
        dense = _distinct_keys(keys)
        hashed = keys if dense is None else dense[0]
        scatter_or(self._words, self._positions(hashed))
        self._num_added += len(keys)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def contains(self, keys: np.ndarray) -> np.ndarray:
        """Boolean mask: which keys *may* be in the set.

        False entries are guaranteed absent; True entries are present up
        to the false-positive rate.  Integer keys with a narrow span are
        tested once per distinct key and answered through a lookup
        table over the span.
        """
        keys = np.asarray(keys)
        if keys.size == 0:
            return np.zeros(0, dtype=bool)
        dense = _distinct_keys(keys)
        if dense is None:
            return test_bits(self._words, self._positions(keys))
        distinct, present, occupied, offsets = dense
        present[occupied] = test_bits(self._words, self._positions(distinct))
        return present[offsets]

    @property
    def num_added(self) -> int:
        """How many keys this filter was handed."""
        return self._num_added

    def is_empty(self) -> bool:
        """True if no bit is set."""
        return not self._words.any()

    # ------------------------------------------------------------------
    # Analytics
    # ------------------------------------------------------------------
    @staticmethod
    def expected_fpr(num_bits: int, num_hashes: int, num_keys: int) -> float:
        """Textbook false-positive rate ``(1 - e^{-kn/m})^k``.

        With the paper's m=128 M bits, k=2, n=16 M this evaluates to about
        4.9%, matching the "roughly 5%" quoted in Section 5.
        """
        if num_keys <= 0:
            return 0.0
        exponent = -num_hashes * num_keys / num_bits
        return float((1.0 - math.exp(exponent)) ** num_hashes)

    def __repr__(self) -> str:
        return (
            f"BloomFilter(m={self.num_bits}, k={self.num_hashes}, "
            f"added={self._num_added}, "
            f"fill={popcount(self._words) / self.num_bits:.3f})"
        )


def probe_and_insert(keys: np.ndarray, probe: BloomFilter,
                     insert: BloomFilter) -> np.ndarray:
    """Probe one filter, then insert the survivors into another.

    This is the zigzag join's two-way filter step inside the JEN scan
    (paper Section 4.4): test each key against the pushed-down BF_DB
    (``probe.contains``) and add exactly the keys that pass to BF_H
    (``insert.add(keys[mask])``).  The JEN scan makes this one call per
    query over every worker's join keys.  Two steps, not one fused
    pass: the survivors are hashed a second time, and that cannot be
    shared — the two filters never agree on positions in any
    registered algorithm (BF_DB is built with seed 7 in
    ``database.build_global_bloom``, BF_H with seed 11,
    ``jen.engine.BF_H_SEED``).  For integer join keys from a small
    domain each step hashes distinct keys only: ``contains`` the
    distinct probed keys, ``add`` the distinct survivors.  Returns the
    keep mask.
    """
    keys = np.asarray(keys)
    if keys.size == 0:
        return np.zeros(0, dtype=bool)
    mask = probe.contains(keys)
    insert.add(keys[mask])
    return mask
