"""Bloom filters over integer join keys.

A Bloom filter here is exactly the structure the paper describes in
Section 3: an ``m``-bit array with ``k`` hash functions.  Adding a key
sets the ``k`` hashed bit positions; membership tests check them, with a
tunable false-positive rate and *no* false negatives.  Local filters
built by individual workers are combined into a global filter with
bitwise OR, mirroring the ``cal_filter`` / ``get_filter`` /
``combine_filter`` UDF pipeline the paper implements in DB2.

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
from repro.testkit import invariants

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
    # Offsets in the keys' own dtype: the subtraction wraps, but every
    # true offset is below the span, so reading the result as unsigned
    # is exact (as int64 for 8-byte keys: the span is far below 2**63).
    offsets = keys - low
    if offsets.itemsize == 8:
        offsets = offsets.view(np.int64)
    else:
        offsets = offsets.view(f"u{offsets.itemsize}").astype(np.intp)
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
        if invariants.checking_enabled():
            invariants.record_bloom_add(self, keys)

    def union_in_place(self, other: "BloomFilter") -> "BloomFilter":
        """Bitwise-OR ``other`` into this filter (the global-merge step)."""
        self._check_compatible(other)
        self._words |= other._words
        self._num_added += other._num_added
        if invariants.checking_enabled():
            invariants.record_bloom_merge(self, other)
        return self

    @classmethod
    def combine(cls, filters: Iterable["BloomFilter"]) -> "BloomFilter":
        """OR a collection of local filters into one global filter.

        This is the reproduction of the paper's ``combine_filter`` UDF:
        each worker computes a filter over its local partition and a
        single worker reduces them.
        """
        filters = list(filters)
        if not filters:
            raise BloomFilterError("combine requires at least one filter")
        merged = filters[0].copy()
        for other in filters[1:]:
            merged.union_in_place(other)
        return merged

    def copy(self) -> "BloomFilter":
        """An independent copy of this filter."""
        duplicate = BloomFilter(self.num_bits, self.num_hashes, self.seed)
        duplicate._words = self._words.copy()
        duplicate._num_added = self._num_added
        if invariants.checking_enabled():
            invariants.record_bloom_merge(duplicate, self)
        return duplicate

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
            mask = test_bits(self._words, self._positions(keys))
        else:
            distinct, present, occupied, offsets = dense
            present[occupied] = test_bits(
                self._words, self._positions(distinct))
            mask = present[offsets]
        if invariants.checking_enabled():
            invariants.check_bloom_contains(self, keys, mask)
        return mask

    def __contains__(self, key: int) -> bool:
        return bool(self.contains(np.asarray([key]))[0])

    @property
    def num_added(self) -> int:
        """How many insertions this filter (and its merged parts) saw."""
        return self._num_added

    def bits_set(self) -> int:
        """Number of 1 bits in the filter.

        Word-level popcount (hardware ``popcnt`` where numpy exposes
        it).  Off the data plane: no engine, advisor or service path
        calls this, :meth:`fill_ratio` or :meth:`estimated_fpr` — only
        ``__repr__`` and the tests do.
        """
        return popcount(self._words)

    def fill_ratio(self) -> float:
        """Fraction of bits set."""
        return self.bits_set() / self.num_bits

    def size_bytes(self) -> int:
        """Serialized size (what crosses the network when shipped)."""
        return self._words.nbytes

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

    def estimated_fpr(self) -> float:
        """FPR estimate from the observed fill ratio."""
        return float(self.fill_ratio() ** self.num_hashes)

    @staticmethod
    def optimal_num_hashes(num_bits: int, num_keys: int) -> int:
        """FPR-minimising hash count ``(m/n) ln 2`` (at least 1)."""
        if num_keys <= 0:
            return 1
        return max(1, round(num_bits / num_keys * math.log(2.0)))

    # ------------------------------------------------------------------
    def _check_compatible(self, other: "BloomFilter") -> None:
        same = (
            self.num_bits == other.num_bits
            and self.num_hashes == other.num_hashes
            and self.seed == other.seed
        )
        if not same:
            raise BloomFilterError(
                "incompatible Bloom filters: "
                f"(m={self.num_bits}, k={self.num_hashes}, seed={self.seed}) vs "
                f"(m={other.num_bits}, k={other.num_hashes}, seed={other.seed})"
            )

    def __repr__(self) -> str:
        return (
            f"BloomFilter(m={self.num_bits}, k={self.num_hashes}, "
            f"added={self._num_added}, fill={self.fill_ratio():.3f})"
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
