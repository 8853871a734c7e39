"""Word-level Bloom-filter kernels.

Three hot spots of the paper's filter pipeline, rewritten against the
uint64 word array instead of individual bits:

* **insert** — ``np.bitwise_or.at`` is notoriously serial (one Python-
  level scatter per element).  :func:`scatter_or` instead scatters the
  positions into a byte-per-bit presence array with a plain fancy-index
  assignment — duplicate positions (hash collisions and the k hashes of
  repeated keys) collapse for free because every write stores the same
  ``1`` — and packs it into words with one ``np.packbits``.  Filters
  too large for the transient presence array fall back to sort +
  group-by-word + one fused ``bitwise_or.reduceat`` per distinct word.
* **probe** — :func:`test_bits` tests hash functions in short-circuit
  order: the full key set is probed against the first hash only, and
  each later hash probes just the survivors of the previous ones.  With
  k hashes and fill ratio f the work is ``n·(1 + (k-1)·f)`` loads
  instead of the naive ``n·k``.

Both take positions, not keys.  ``BloomFilter`` hashes each *distinct*
key once when the keys are integers of a narrow span (the usual case
for join keys), so there ``n`` counts distinct keys, not rows.
* **popcount** — :func:`popcount` uses the hardware ``popcnt`` exposed
  as ``np.bitwise_count`` where available and an 8-bit lookup table
  otherwise, never materialising 8 bits per byte the way
  ``np.unpackbits`` does.

All three are bit-identical to the naive formulations in
``tests/kernel_reference.py`` (the property tests compare final word
arrays, masks and counts directly).
"""

from __future__ import annotations

import sys

import numpy as np

_WORD_SHIFT = np.uint64(6)
_BIT_MASK = np.uint64(63)
_ONE = np.uint64(1)

#: Set-bit count per byte value, for platforms without np.bitwise_count.
_POPCOUNT_TABLE = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1
).sum(axis=1).astype(np.uint8)

_HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")

#: The packbits insert path keeps a transient byte-per-bit presence
#: array (64 bytes per word); cap it at 16 MB so a huge filter cannot
#: blow the working set.  ``np.packbits(bitorder="little")`` followed by
#: a uint64 view only lines up with the word layout on little-endian
#: hosts, hence the byte-order gate.
_PACKBITS_MAX_WORDS = (16 << 20) // 64
_LITTLE_ENDIAN = sys.byteorder == "little"


def scatter_or(words: np.ndarray, positions: np.ndarray) -> None:
    """OR the given bit positions into ``words``, in place.

    ``positions`` is any integer array of bit indexes (duplicates
    welcome); ``words`` is the filter's uint64 backing array.  The
    final word values match a serial scatter exactly.
    """
    positions = np.asarray(positions).ravel()
    if positions.size == 0:
        return
    if _LITTLE_ENDIAN and words.size <= _PACKBITS_MAX_WORDS:
        # Duplicate-collapsing scatter: every occurrence of a position
        # writes the same 1 into the presence byte, so no dedup pass is
        # needed before the single packbits.  uint64 positions (what
        # the filter's hasher produces) are reinterpreted as int64
        # without a copy — bit positions never reach 2**63 — because
        # fancy indexing with a non-native index dtype would pay a full
        # conversion pass.
        if positions.dtype == np.uint64:
            indexes = np.ascontiguousarray(positions).view(np.int64)
        else:
            indexes = positions.astype(np.int64, copy=False)
        presence = np.zeros(words.size * 64, dtype=np.uint8)
        presence[indexes] = 1
        words |= np.packbits(presence, bitorder="little").view(np.uint64)
        return
    # Large-filter fallback: sort positions, group by word (sorted, so
    # equal words are adjacent), fuse each word's bits with reduceat.
    # Duplicates need no explicit collapsing — OR is idempotent.
    positions = np.sort(positions.astype(np.uint64, copy=False))
    word_index = (positions >> _WORD_SHIFT).astype(np.int64)
    bits = _ONE << (positions & _BIT_MASK)
    starts = np.concatenate(
        ([0], np.flatnonzero(np.diff(word_index)) + 1)
    )
    words[word_index[starts]] |= np.bitwise_or.reduceat(bits, starts)


def test_bits(words: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Which columns of a (k, n) position array have all k bits set.

    Hash functions are evaluated in short-circuit order: only keys
    whose bits were all set so far are probed against the next hash, so
    selective filters pay for roughly one probe per rejected key.
    """
    positions = np.asarray(positions)
    if positions.size == 0:
        return np.ones(positions.shape[-1], dtype=bool)
    first = positions[0]
    word_index = (first >> _WORD_SHIFT).astype(np.int64)
    mask = (words[word_index] >> (first & _BIT_MASK)) & _ONE != 0
    for row in range(1, positions.shape[0]):
        alive = np.flatnonzero(mask)
        if alive.size == 0:
            break
        subset = positions[row][alive]
        word_index = (subset >> _WORD_SHIFT).astype(np.int64)
        hit = (words[word_index] >> (subset & _BIT_MASK)) & _ONE != 0
        mask[alive[~hit]] = False
    return mask


def popcount(words: np.ndarray) -> int:
    """Total number of set bits in a uint64 word array."""
    if words.size == 0:
        return 0
    if _HAVE_BITWISE_COUNT:
        return int(np.bitwise_count(words).sum())
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    return int(_POPCOUNT_TABLE[as_bytes].sum(dtype=np.int64))
