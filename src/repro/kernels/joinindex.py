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

The probe is a stable sort order + double ``searchsorted``, so match
pairs come back probe-major, build positions in sorted-key occurrence
order within one probe row.
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


def fits_band(keys: np.ndarray, band_values: np.ndarray) -> bool:
    """Whether one join side's columns suit a banded index: integer
    keys that convert to int64 exactly and integer band values of at
    most 32 bits (so a difference of two values, and any band bound
    clamped to ``_BOUND_CLAMP``, is exact in int64)."""
    key_kind, key_size = keys.dtype.kind, keys.dtype.itemsize
    return ((key_kind == "i" or (key_kind == "u" and key_size < 8))
            and band_values.dtype.kind in "iu"
            and band_values.dtype.itemsize <= 4)


# |probe - build| < 2**33 for 32-bit band values, so a bound past this
# admits (or excludes) every pair exactly as the unclamped one does.
_BOUND_CLAMP = 1 << 34


def _empty_pairs() -> Tuple[np.ndarray, np.ndarray]:
    empty = np.empty(0, dtype=np.int64)
    return empty, empty


def _expand_ranges(lo: np.ndarray, counts: np.ndarray, total: int
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """``(sorted positions, probe rows)`` of the ranges
    ``[lo[p], lo[p] + counts[p])``, probe-major."""
    probe_idx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    # Pair j of probe row p reads sorted position lo[p] + (j -
    # starts[p]): repeat the per-row constant, add the running j.
    starts = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    positions = np.repeat(lo - starts, counts)
    positions += np.arange(total, dtype=np.int64)
    return positions, probe_idx


class JoinBuildIndex:
    """Sorted join keys plus the permutation back to build-row order.

    Parameters
    ----------
    build_keys:
        The build side's join-key column.  The array is retained (by
        reference) so cached indexes can be validated against a fresh
        build side with :meth:`matches` before reuse.
    band_values:
        Optionally, the build side's column of an integer band
        (:class:`repro.relational.expressions.Band`).  When keys and
        values pass :func:`fits_band` and the packing below fits 63
        bits, the index is *banded*: it sorts the word
        ``((key - kmin) << b_d | (value - vmin)) << b_p | position``, so
        one key's rows lie in value order and a probe can cut out
        exactly the rows inside a band (:meth:`probe` with ``band``).
        Otherwise the index is keyed on ``build_keys`` alone.
    """

    __slots__ = ("keys", "band_values", "order", "sorted_keys",
                 "banded", "_key_low", "_key_high", "_value_low",
                 "_value_bits", "_position_bits")

    def __init__(self, build_keys: np.ndarray,
                 band_values: Optional[np.ndarray] = None):
        self.keys = np.asarray(build_keys)
        self.band_values = (None if band_values is None
                            else np.asarray(band_values))
        self.banded = (self.band_values is not None
                       and self._build_banded())
        if not self.banded:
            self.order = _stable_order(self.keys)
            self.sorted_keys = self.keys.take(self.order)

    def _build_banded(self) -> bool:
        """Sort the composite words; False (nothing set) when the keys
        or values cannot be packed."""
        keys, values = self.keys, self.band_values
        count = len(keys)
        if not (count and fits_band(keys, values)):
            return False
        key_low, key_high = int(keys.min()), int(keys.max())
        value_low = int(values.min())
        key_bits = (key_high - key_low).bit_length()
        value_bits = (int(values.max()) - value_low).bit_length()
        # At least one position bit keeps the probe's largest target,
        # one past the top word, inside int64.
        position_bits = max((count - 1).bit_length(), 1)
        if key_bits + value_bits + position_bits > 63:
            return False
        words = keys.astype(np.int64)
        words -= key_low
        words <<= value_bits
        words |= values.astype(np.int64) - value_low
        words <<= position_bits
        words |= np.arange(count, dtype=np.int64)
        words.sort()
        self.order = words & ((1 << position_bits) - 1)
        # The sorted (key, value) words without the position: what a
        # band probe searches.
        words >>= position_bits
        self.sorted_keys = words
        self._key_low, self._key_high = key_low, key_high
        self._value_low, self._value_bits = value_low, value_bits
        self._position_bits = position_bits
        return True

    @property
    def num_keys(self) -> int:
        """Number of build rows indexed."""
        return len(self.keys)

    def matches(self, build_keys: np.ndarray,
                band_values: Optional[np.ndarray] = None) -> bool:
        """Whether this index was built over exactly ``build_keys`` (and
        ``band_values``: a key-only index never serves a band request,
        nor the reverse).

        Identity is checked first (the common case for a per-query
        reuse); otherwise an O(n) element compare guards cached reuse
        across queries — still far cheaper than the O(n log n) rebuild.
        """
        return (_same_array(np.asarray(build_keys), self.keys)
                and _same_array(band_values, self.band_values))

    def probe(self, probe_keys: np.ndarray,
              band: Optional[Tuple[np.ndarray, int, int]] = None):
        """All matching (build_row, probe_row) pairs for an equi-join.

        Duplicate keys multiply out exactly as SQL requires; the pairs
        come back probe-major, build positions ascending within one
        probe row.

        A banded index takes ``band=(probe_values, low, high)`` instead
        and returns ``(build_idx, probe_idx, key_pairs)``: only the key
        matches with ``low <= probe_value - build_value <= high``, in the
        same order, plus the number of key matches before the band.
        """
        probe_keys = np.asarray(probe_keys)
        if self.banded != (band is not None):
            raise ValueError(
                "a band probe needs a banded index, and a banded index "
                "a band probe")
        if band is not None:
            return self._probe_band(probe_keys, *band)
        if self.num_keys == 0 or probe_keys.size == 0:
            return _empty_pairs()
        lo = np.searchsorted(self.sorted_keys, probe_keys, side="left")
        hi = np.searchsorted(self.sorted_keys, probe_keys, side="right")
        counts = (hi - lo).astype(np.int64)
        total = int(counts.sum())
        if total == 0:
            return _empty_pairs()
        positions, probe_idx = _expand_ranges(lo, counts, total)
        return self.order.take(positions), probe_idx

    def _probe_band(self, probe_keys: np.ndarray,
                    probe_values: np.ndarray, low: int, high: int):
        """Cut each probe row's band out of the sorted (key, value)
        words: the ranges *are* the in-band pairs, no key match outside
        them is ever produced."""
        if probe_keys.size == 0:
            return _empty_pairs() + (0,)
        if not fits_band(probe_keys, probe_values):
            raise ValueError("a band probe needs integer keys and "
                             "integer band values of at most 32 bits")
        key_offsets = probe_keys.astype(np.int64)
        in_range = ((key_offsets >= self._key_low)
                    & (key_offsets <= self._key_high))
        key_offsets -= self._key_low
        # The build values v inside the band satisfy
        # value_offset - high <= v - vmin <= value_offset - low.
        low = min(max(int(low), -_BOUND_CLAMP), _BOUND_CLAMP)
        high = min(max(int(high), -_BOUND_CLAMP), _BOUND_CLAMP)
        value_bits = self._value_bits
        value_span = (1 << value_bits) - 1
        value_offsets = probe_values.astype(np.int64) - self._value_low
        base = key_offsets << value_bits
        # One search for four cuts per probe row: the key's first word,
        # the band's first and one-past-last words, the next key's first
        # word.  Every in-range target stays below 2**62; rows whose key
        # lies outside the build's range get empty cuts.
        cuts = np.searchsorted(self.sorted_keys, np.concatenate((
            base,
            base + np.clip(value_offsets - high, 0, value_span + 1),
            base + np.clip(value_offsets - low + 1, 0, value_span + 1),
            base + (1 << value_bits),
        ))).reshape(4, -1)
        cuts[:, ~in_range] = 0
        key_pairs = int((cuts[3] - cuts[0]).sum())
        lo = cuts[1]
        counts = np.maximum(cuts[2] - lo, 0)
        total = int(counts.sum())
        if total == 0:
            return _empty_pairs() + (key_pairs,)
        positions, probe_idx = _expand_ranges(lo, counts, total)
        build_idx = self.order.take(positions)
        # Within a probe row the pairs came out in value order; one
        # packed sort restores build-position order, the order a
        # key-only probe (and so every float SUM) sees.
        position_bits = self._position_bits
        if (len(probe_keys) - 1).bit_length() + position_bits <= 63:
            words = probe_idx << position_bits
            words |= build_idx
            words.sort()
            build_idx = words & ((1 << position_bits) - 1)
            probe_idx = words >> position_bits
        else:
            restore = np.lexsort((build_idx, probe_idx))
            build_idx = build_idx.take(restore)
            probe_idx = probe_idx.take(restore)
        return build_idx, probe_idx, key_pairs

    def __repr__(self) -> str:
        band = ", banded" if self.banded else ""
        return f"JoinBuildIndex(keys={self.num_keys}{band})"


def _same_array(given: Optional[np.ndarray],
                held: Optional[np.ndarray]) -> bool:
    """Identity first, then shape + element equality; None only
    matches None."""
    if given is None or held is None:
        return given is held
    given = np.asarray(given)
    if given is held:
        return True
    if given.shape != held.shape:
        return False
    return bool(np.array_equal(given, held))


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
